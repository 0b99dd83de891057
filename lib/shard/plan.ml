module Topology = Tl_engine.Topology

type shard = {
  id : int;
  owned : int array;
  n_owned : int;
  n_local : int;
  l2g : int array;
  off : int array;
  adj : int array;
  eid : int array;
  halo_off : int array;
  halo_adj : int array;
  xoff : int array;
  xshard : int array;
  xslot : int array;
  cut_edges : int;
}

type t = {
  topo : Topology.t;
  shards : shard array;
  owner : int array;
}

(* Partitioning is the pool's fixed-contiguous-chunk discipline applied to
   [present_nodes]: shard [s] owns slice [s*chunk, min np ((s+1)*chunk)).
   Everything downstream (halo discovery order, route order) is a
   deterministic scan of that slice, so the plan is a pure function of
   (topology, shard count). *)
let build ~topo ~shards =
  let np = topo.Topology.n_present in
  let s_count = max 1 (min shards (max 1 np)) in
  let chunk = if np = 0 then 0 else (np + s_count - 1) / s_count in
  let n = topo.Topology.n_base in
  let owner = Array.make n (-1) in
  let slot = Array.make n (-1) in
  (* pass 0: ownership of every present node, before any shard is built *)
  for s = 0 to s_count - 1 do
    let lo = min np (s * chunk) and hi = min np ((s + 1) * chunk) in
    for i = lo to hi - 1 do
      let v = topo.Topology.present_nodes.(i) in
      owner.(v) <- s;
      slot.(v) <- i - lo
    done
  done;
  let g_off = topo.Topology.off
  and g_adj = topo.Topology.adj
  and g_eid = topo.Topology.eid in
  (* scratch: global id -> local index within the shard being built *)
  let g2l = Array.make n (-1) in
  let build_shard s =
    let lo = min np (s * chunk) and hi = min np ((s + 1) * chunk) in
    let n_owned = hi - lo in
    let owned = Array.sub topo.Topology.present_nodes lo n_owned in
    Array.iteri (fun l v -> g2l.(v) <- l) owned;
    (* pass 1 over owned rows: degrees, halo discovery, cut edges *)
    let halo = ref [] and n_halo = ref 0 and cut = ref 0 in
    let off = Array.make (n_owned + 1) 0 in
    for l = 0 to n_owned - 1 do
      let v = owned.(l) in
      off.(l + 1) <- g_off.(v + 1) - g_off.(v);
      for j = g_off.(v) to g_off.(v + 1) - 1 do
        let u = g_adj.(j) in
        if owner.(u) <> s then begin
          incr cut;
          if g2l.(u) < 0 then begin
            g2l.(u) <- n_owned + !n_halo;
            incr n_halo;
            halo := u :: !halo
          end
        end
      done
    done;
    for l = 0 to n_owned - 1 do
      off.(l + 1) <- off.(l) + off.(l + 1)
    done;
    let n_local = n_owned + !n_halo in
    let l2g = Array.make n_local 0 in
    Array.blit owned 0 l2g 0 n_owned;
    List.iter
      (fun u ->
        l2g.(g2l.(u)) <- u)
      !halo;
    (* pass 2: fill the compact CSR and count halo-row degrees *)
    let m = off.(n_owned) in
    let adj = Array.make m 0 and eid = Array.make m 0 in
    let halo_off = Array.make (!n_halo + 1) 0 in
    for l = 0 to n_owned - 1 do
      let v = owned.(l) in
      let pos = ref off.(l) in
      for j = g_off.(v) to g_off.(v + 1) - 1 do
        let lu = g2l.(g_adj.(j)) in
        adj.(!pos) <- lu;
        eid.(!pos) <- g_eid.(j);
        if lu >= n_owned then
          halo_off.(lu - n_owned + 1) <- halo_off.(lu - n_owned + 1) + 1;
        incr pos
      done
    done;
    for h = 0 to !n_halo - 1 do
      halo_off.(h + 1) <- halo_off.(h) + halo_off.(h + 1)
    done;
    let halo_adj = Array.make halo_off.(!n_halo) 0 in
    let halo_fill = Array.copy halo_off in
    for l = 0 to n_owned - 1 do
      for j = off.(l) to off.(l + 1) - 1 do
        let lu = adj.(j) in
        if lu >= n_owned then begin
          let h = lu - n_owned in
          halo_adj.(halo_fill.(h)) <- l;
          halo_fill.(h) <- halo_fill.(h) + 1
        end
      done
    done;
    (* reset scratch for the next shard *)
    Array.iter (fun v -> g2l.(v) <- -1) owned;
    List.iter (fun u -> g2l.(u) <- -1) !halo;
    {
      id = s;
      owned;
      n_owned;
      n_local;
      l2g;
      off;
      adj;
      eid;
      halo_off;
      halo_adj;
      xoff = [||];
      xshard = [||];
      xslot = [||];
      cut_edges = !cut;
    }
  in
  let shards_arr = Array.init s_count build_shard in
  (* Exchange routes: walk target shards in ascending order, their halo
     slots in ascending order, and append each (target, slot) to the
     owner's route list for the source node. A stable counting sort by
     source local then turns the per-shard append lists into CSR routes
     whose per-node order is ascending (target, slot) — the order the
     executor uses, making the exchange schedule deterministic. *)
  let route_src = Array.make s_count [||]
  and route_dst = Array.make s_count [||]
  and route_slot = Array.make s_count [||]
  and route_n = Array.make s_count 0 in
  (* capacity: total halo references to each owner shard *)
  let route_cap = Array.make s_count 0 in
  for t = 0 to s_count - 1 do
    let sh = shards_arr.(t) in
    for h = sh.n_owned to sh.n_local - 1 do
      let s = owner.(sh.l2g.(h)) in
      route_cap.(s) <- route_cap.(s) + 1
    done
  done;
  for s = 0 to s_count - 1 do
    route_src.(s) <- Array.make (max 1 route_cap.(s)) 0;
    route_dst.(s) <- Array.make (max 1 route_cap.(s)) 0;
    route_slot.(s) <- Array.make (max 1 route_cap.(s)) 0
  done;
  for t = 0 to s_count - 1 do
    let sh = shards_arr.(t) in
    for h = sh.n_owned to sh.n_local - 1 do
      let v = sh.l2g.(h) in
      let s = owner.(v) in
      let k = route_n.(s) in
      route_src.(s).(k) <- slot.(v);
      route_dst.(s).(k) <- t;
      route_slot.(s).(k) <- h;
      route_n.(s) <- k + 1
    done
  done;
  let shards_arr =
    Array.map
      (fun sh ->
        let s = sh.id in
        let nr = route_n.(s) in
        let xoff = Array.make (sh.n_owned + 1) 0 in
        for k = 0 to nr - 1 do
          xoff.(route_src.(s).(k) + 1) <- xoff.(route_src.(s).(k) + 1) + 1
        done;
        for l = 0 to sh.n_owned - 1 do
          xoff.(l + 1) <- xoff.(l) + xoff.(l + 1)
        done;
        let xshard = Array.make nr 0 and xslot = Array.make nr 0 in
        let fill = Array.copy xoff in
        for k = 0 to nr - 1 do
          let l = route_src.(s).(k) in
          xshard.(fill.(l)) <- route_dst.(s).(k);
          xslot.(fill.(l)) <- route_slot.(s).(k);
          fill.(l) <- fill.(l) + 1
        done;
        { sh with xoff; xshard; xslot })
      shards_arr
  in
  { topo; shards = shards_arr; owner }

let cut_edges_total t =
  Array.fold_left (fun acc sh -> acc + sh.cut_edges) 0 t.shards

(* ---------- shard (de)serialization ----------

   Binary codec used by the tl_proc backend to ship each worker its
   sub-CSR once at startup (the prologue frame). Self-contained — tl_proc
   depends on this library, not the other way round — and versioned so a
   coordinator and worker built from different trees fail loudly instead
   of misparsing. Layout: magic "TLS", version byte, four u32 scalars
   (id, n_owned, n_local, cut_edges), then the nine int arrays each as
   u32 length + 8-byte little-endian entries. [owned] is not stored: it
   is always the first [n_owned] entries of [l2g]. *)

let shard_codec_version = 1

let enc_u32 b pos v =
  Bytes.set_int32_le b pos (Int32.of_int v)

let dec_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let encode_shard sh =
  let arrays =
    [|
      sh.l2g; sh.off; sh.adj; sh.eid; sh.halo_off; sh.halo_adj; sh.xoff;
      sh.xshard; sh.xslot;
    |]
  in
  let size =
    4 + 16
    + Array.fold_left (fun acc a -> acc + 4 + (8 * Array.length a)) 0 arrays
  in
  let b = Bytes.create size in
  Bytes.set b 0 'T';
  Bytes.set b 1 'L';
  Bytes.set b 2 'S';
  Bytes.set b 3 (Char.chr shard_codec_version);
  enc_u32 b 4 sh.id;
  enc_u32 b 8 sh.n_owned;
  enc_u32 b 12 sh.n_local;
  enc_u32 b 16 sh.cut_edges;
  let pos = ref 20 in
  Array.iter
    (fun a ->
      enc_u32 b !pos (Array.length a);
      pos := !pos + 4;
      Array.iter
        (fun v ->
          Bytes.set_int64_le b !pos (Int64.of_int v);
          pos := !pos + 8)
        a)
    arrays;
  assert (!pos = size);
  b

let decode_shard b =
  let len = Bytes.length b in
  let bad fmt = Printf.ksprintf invalid_arg ("Plan.decode_shard: " ^^ fmt) in
  if len < 20 then bad "truncated header (%d bytes)" len;
  if Bytes.get b 0 <> 'T' || Bytes.get b 1 <> 'L' || Bytes.get b 2 <> 'S' then
    bad "bad magic";
  let ver = Char.code (Bytes.get b 3) in
  if ver <> shard_codec_version then
    bad "version mismatch (got %d, expected %d)" ver shard_codec_version;
  let id = dec_u32 b 4
  and n_owned = dec_u32 b 8
  and n_local = dec_u32 b 12
  and cut_edges = dec_u32 b 16 in
  let pos = ref 20 in
  let read_array () =
    if !pos + 4 > len then bad "truncated at array header (offset %d)" !pos;
    let k = dec_u32 b !pos in
    pos := !pos + 4;
    if !pos + (8 * k) > len then
      bad "truncated array body (offset %d, want %d entries)" !pos k;
    let a =
      Array.init k (fun i -> Int64.to_int (Bytes.get_int64_le b (!pos + (8 * i))))
    in
    pos := !pos + (8 * k);
    a
  in
  let l2g = read_array () in
  let off = read_array () in
  let adj = read_array () in
  let eid = read_array () in
  let halo_off = read_array () in
  let halo_adj = read_array () in
  let xoff = read_array () in
  let xshard = read_array () in
  let xslot = read_array () in
  if !pos <> len then bad "trailing garbage (%d bytes)" (len - !pos);
  if n_owned < 0 || n_local < n_owned then
    bad "inconsistent sizes (n_owned=%d n_local=%d)" n_owned n_local;
  if Array.length l2g <> n_local then bad "l2g length mismatch";
  if Array.length off <> n_owned + 1 then bad "off length mismatch";
  if Array.length adj <> Array.length eid then bad "adj/eid length mismatch";
  if Array.length adj <> off.(n_owned) then bad "adj length disagrees with off";
  if Array.length halo_off <> n_local - n_owned + 1 then
    bad "halo_off length mismatch";
  if Array.length halo_adj <> halo_off.(n_local - n_owned) then
    bad "halo_adj length disagrees with halo_off";
  if Array.length xoff <> n_owned + 1 then bad "xoff length mismatch";
  if Array.length xshard <> Array.length xslot then
    bad "xshard/xslot length mismatch";
  if Array.length xshard <> xoff.(n_owned) then
    bad "xshard length disagrees with xoff";
  {
    id;
    owned = Array.sub l2g 0 n_owned;
    n_owned;
    n_local;
    l2g;
    off;
    adj;
    eid;
    halo_off;
    halo_adj;
    xoff;
    xshard;
    xslot;
    cut_edges;
  }

let imbalance_permille t =
  let np = t.topo.Topology.n_present in
  if np = 0 then 1000
  else begin
    let s_count = Array.length t.shards in
    let mx = Array.fold_left (fun acc sh -> max acc sh.n_owned) 0 t.shards in
    mx * s_count * 1000 / np
  end
