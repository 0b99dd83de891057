(* The worker side of the process backend: one forked process per shard.

   A worker inherits the run's closures (init/step/equal/halted, or the
   flat kernel builder) through fork — closures never cross the wire —
   but its shard sub-CSR arrives as a Plan.encode_shard image inside the
   prologue frame and is decoded here, so the data path a real multi-host
   deployment would need is the one actually exercised.

   Per round (decision "step r" from the collective tree):

     local step over the active set  →  commit (shard.ml discipline:
     publish changed states, dirty owned neighbors, append exchange
     routes)  →  halo exchange (one frame per out-neighbor, pumped
     bidirectionally under select; received frames applied in ascending
     source rank, exactly the in-process exchange order)  →  advance
     →  stats allreduce up the tree (active/changed/unhalted/halo_words
     summed component-wise).

   The executor bodies mirror shard.ml (boxed) and flat.ml (slab) line
   for line — the differential battery holds proc, shard and seq
   together bit for bit. *)

module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Plan = Tl_shard.Plan

(* The prologue's entry code names the coordinator's stop policy; a
   worker only needs to know whether it must track halting. *)
let entry_code = function
  | Engine.Halted _ -> 1
  | Engine.Stable _ -> 2
  | Engine.Rounds _ -> 3

let halting_of_code = function
  | 1 -> true
  | 2 | 3 -> false
  | c -> Wire.fail "unknown entry code %d" c

let sched_code = function Engine.Active_set -> 0 | Engine.Full_scan -> 1

let sched_of_code = function
  | 0 -> Engine.Active_set
  | 1 -> Engine.Full_scan
  | c -> Wire.fail "unknown sched code %d" c

type env = {
  rank : int;
  size : int;
  halting : bool;  (* the run stops on Engine.Halted *)
  sched : Engine.scheduling;
  slots : int;
  sh : Plan.shard;
  coord : Unix.file_descr;
  parent_fd : Unix.file_descr option;  (* None at the tree root *)
  child_fds : Unix.file_descr array;  (* ascending child rank *)
  out_fds : (int * Unix.file_descr) array;  (* halo out-peers, ascending *)
  in_fds : (int * Unix.file_descr) array;  (* halo in-peers, ascending *)
  cbuf : Transport.Buf.t;  (* control-frame receive buffer *)
  ibufs : Transport.Buf.t array;  (* one halo receive buffer per in-peer *)
}

(* ---------- control-plane helpers ---------- *)

(* Sum the subtree's stats (children first, one frame each), add our own,
   forward to the parent (the coordinator when we are the root). *)
let send_stats env ~round ~active ~changed ~unhalted ~halo_words =
  let a = ref active
  and c = ref changed
  and u = ref unhalted
  and hw = ref halo_words in
  Array.iter
    (fun fd ->
      match Transport.recv_typed fd env.cbuf with
      | Wire.Stats s ->
        a := !a + s.active;
        c := !c + s.changed;
        u := !u + s.unhalted;
        hw := !hw + s.halo_words
      | _ -> Wire.fail "worker %d: expected stats from child" env.rank)
    env.child_fds;
  let img =
    Wire.encode
      (Wire.Stats
         {
           round;
           src = env.rank;
           active = !a;
           changed = !c;
           unhalted = !u;
           halo_words = !hw;
         })
  in
  let dst = match env.parent_fd with Some fd -> fd | None -> env.coord in
  Transport.send_frame dst img (Bytes.length img)

(* Receive the next decision (from the coordinator at the root, from the
   tree parent otherwise) and forward it down before doing any work, so
   the whole subtree starts its round without waiting on our compute. *)
let recv_decision env =
  let src = match env.parent_fd with Some fd -> fd | None -> env.coord in
  match Transport.recv_typed src env.cbuf with
  | Wire.Decision { action; round } ->
    if Array.length env.child_fds > 0 then begin
      let img = Wire.encode (Wire.Decision { action; round }) in
      Array.iter
        (fun fd -> Transport.send_frame fd img (Bytes.length img))
        env.child_fds
    end;
    (action, round)
  | _ -> Wire.fail "worker %d: expected decision" env.rank

let send_epilogue env ~halo_words ~exchange_rounds ~states =
  let img =
    Wire.encode
      (Wire.Epilogue { src = env.rank; halo_words; exchange_rounds; states })
  in
  Transport.send_frame env.coord img (Bytes.length img)

(* ---------- halo plumbing shared by both executors ---------- *)

(* Start a halo frame image in [buf]; body entries follow at the
   returned offset. *)
let halo_body_start = Wire.frame_overhead + 10

let begin_halo buf =
  buf.Transport.Buf.len <- 0;
  Transport.Buf.ensure buf halo_body_start;
  ignore (Wire.begin_frame buf.Transport.Buf.b Wire.k_halo);
  buf.Transport.Buf.len <- halo_body_start;
  halo_body_start

let finish_halo buf ~round ~src ~n pos =
  let b = buf.Transport.Buf.b in
  Wire.put_u32 b Wire.frame_overhead round;
  Wire.put_u16 b (Wire.frame_overhead + 4) src;
  Wire.put_u32 b (Wire.frame_overhead + 6) n;
  ignore (Wire.end_frame b pos);
  buf.Transport.Buf.len <- pos

(* Validate a received halo payload and return the offset of its first
   entry; [n] entries follow. *)
let open_halo env ~expect_src ~round buf =
  let b = buf.Transport.Buf.b and len = buf.Transport.Buf.len in
  let kind = Wire.check_payload b ~pos:0 ~len in
  if kind <> Wire.k_halo then
    Wire.fail "worker %d: expected halo frame, got kind %d" env.rank kind;
  if len < 15 then Wire.fail "worker %d: short halo frame" env.rank;
  let r = Wire.get_u32 b 5 in
  let src = Wire.get_u16 b 9 in
  if r <> round then
    Wire.fail "worker %d: halo round skew (got %d, at %d)" env.rank r round;
  if src <> expect_src then
    Wire.fail "worker %d: halo from rank %d on rank %d's channel" env.rank src
      expect_src;
  (Wire.get_u32 b 11, 15)

(* ---------- the boxed executor (shard.ml's sctx, one shard) ---------- *)

let run_boxed (type a) env ~(init : int -> a) ~(step : a Engine.step_fn)
    ~(equal : a -> a -> bool) ~(halted : (a -> bool) option) =
  let sh = env.sh in
  let n_owned = sh.Plan.n_owned and n_local = sh.Plan.n_local in
  let l2g = sh.Plan.l2g in
  let off = sh.Plan.off and adj = sh.Plan.adj and eid = sh.Plan.eid in
  let xoff = sh.Plan.xoff
  and xshard = sh.Plan.xshard
  and xslot = sh.Plan.xslot in
  let st : a array = Array.init n_local (fun l -> init l2g.(l)) in
  let nx = Array.sub st 0 n_owned in
  let routes = xoff.(n_owned) in
  let active = ref (Array.init n_owned (fun l -> l)) in
  let n_active = ref n_owned in
  let pending = ref (Array.make (max 1 n_owned) 0) in
  let n_pending = ref 0 in
  let dirty = Array.make (max 1 n_owned) false in
  let out_dst = Array.make (max 1 routes) 0
  and out_slot = Array.make (max 1 routes) 0
  and out_src = Array.make (max 1 routes) 0 in
  let n_out = ref 0 in
  let halo_words = ref 0 and exchange_rounds = ref 0 in
  let halted_f = Array.make (max 1 n_owned) true in
  let unhalted = ref 0 in
  (match halted with
  | None -> ()
  | Some h ->
    for l = 0 to n_owned - 1 do
      let hv = h st.(l) in
      halted_f.(l) <- hv;
      if not hv then incr unhalted
    done);
  let mark l =
    if not (Array.unsafe_get dirty l) then begin
      Array.unsafe_set dirty l true;
      Array.unsafe_set !pending !n_pending l;
      incr n_pending
    end
  in
  let compute round =
    let act = !active in
    for i = 0 to !n_active - 1 do
      let l = Array.unsafe_get act i in
      let acc = ref [] in
      let lo = Array.unsafe_get off l in
      let j = ref (Array.unsafe_get off (l + 1) - 1) in
      while !j >= lo do
        let u = Array.unsafe_get adj !j in
        acc :=
          ( Array.unsafe_get l2g u,
            Array.unsafe_get eid !j,
            Array.unsafe_get st u )
          :: !acc;
        decr j
      done;
      Array.unsafe_set nx l
        (step ~round ~node:(Array.unsafe_get l2g l) (Array.unsafe_get st l)
           ~neighbors:!acc)
    done
  in
  let commit () =
    let changed = ref 0 in
    let act = !active in
    for i = 0 to !n_active - 1 do
      let l = Array.unsafe_get act i in
      let s' = Array.unsafe_get nx l in
      if not (equal s' (Array.unsafe_get st l)) then begin
        incr changed;
        Array.unsafe_set st l s';
        (match halted with
        | None -> ()
        | Some h ->
          let hv = h s' in
          if hv <> Array.unsafe_get halted_f l then begin
            Array.unsafe_set halted_f l hv;
            if hv then decr unhalted else incr unhalted
          end);
        (match env.sched with
        | Engine.Full_scan -> ()
        | Engine.Active_set ->
          mark l;
          for j = Array.unsafe_get off l to Array.unsafe_get off (l + 1) - 1 do
            let u = Array.unsafe_get adj j in
            if u < n_owned then mark u
          done);
        for x = Array.unsafe_get xoff l to Array.unsafe_get xoff (l + 1) - 1 do
          let k = !n_out in
          Array.unsafe_set out_dst k (Array.unsafe_get xshard x);
          Array.unsafe_set out_slot k (Array.unsafe_get xslot x);
          Array.unsafe_set out_src k l;
          n_out := k + 1
        done
      end
    done;
    !changed
  in
  let advance () =
    let k = !n_pending in
    let pnd = !pending in
    if k * 8 >= n_owned then begin
      let idx = ref 0 in
      for l = 0 to n_owned - 1 do
        if Array.unsafe_get dirty l then begin
          Array.unsafe_set dirty l false;
          Array.unsafe_set pnd !idx l;
          incr idx
        end
      done
    end
    else
      for i = 0 to k - 1 do
        Array.unsafe_set dirty (Array.unsafe_get pnd i) false
      done;
    let old = !active in
    active := pnd;
    pending := old;
    n_active := k;
    n_pending := 0
  in
  (* halo out: one reusable frame buffer per out-peer; [peer_of] maps a
     route's target rank to its buffer *)
  let n_outp = Array.length env.out_fds in
  let peer_of = Array.make (max 1 env.size) (-1) in
  Array.iteri (fun i (r, _) -> peer_of.(r) <- i) env.out_fds;
  let obufs = Array.init n_outp (fun _ -> Transport.Buf.create 4096) in
  let opos = Array.make (max 1 n_outp) 0 in
  let ocnt = Array.make (max 1 n_outp) 0 in
  let exchange round =
    for p = 0 to n_outp - 1 do
      opos.(p) <- begin_halo obufs.(p);
      ocnt.(p) <- 0
    done;
    for b = 0 to !n_out - 1 do
      let p = peer_of.(Array.unsafe_get out_dst b) in
      let buf = obufs.(p) in
      let pos = opos.(p) in
      let s = Array.unsafe_get st (Array.unsafe_get out_src b) in
      let r = Obj.repr s in
      buf.Transport.Buf.len <- pos;
      if Obj.is_int r then begin
        Transport.Buf.ensure buf (pos + 13);
        let bb = buf.Transport.Buf.b in
        Wire.put_u32 bb pos (Array.unsafe_get out_slot b);
        Bytes.unsafe_set bb (pos + 4) '\000';
        Wire.put_i64 bb (pos + 5) (Obj.obj r : int);
        opos.(p) <- pos + 13
      end
      else begin
        let m = Marshal.to_bytes s [] in
        let ml = Bytes.length m in
        Transport.Buf.ensure buf (pos + 9 + ml);
        let bb = buf.Transport.Buf.b in
        Wire.put_u32 bb pos (Array.unsafe_get out_slot b);
        Bytes.unsafe_set bb (pos + 4) '\001';
        Wire.put_u32 bb (pos + 5) ml;
        Bytes.blit m 0 bb (pos + 9) ml;
        opos.(p) <- pos + 9 + ml
      end;
      ocnt.(p) <- ocnt.(p) + 1
    done;
    let outs =
      Array.init n_outp (fun p ->
          finish_halo obufs.(p) ~round ~src:env.rank ~n:ocnt.(p) opos.(p);
          Transport.make_out (snd env.out_fds.(p)) obufs.(p).Transport.Buf.b
            opos.(p))
    in
    let ins =
      Array.mapi
        (fun i (_, fd) -> Transport.make_in fd env.ibufs.(i))
        env.in_fds
    in
    Transport.exchange ~outs ~ins;
    (* apply in ascending source rank — the in-process exchange order *)
    Array.iteri
      (fun i (src, _) ->
        let buf = env.ibufs.(i) in
        let n, ent0 = open_halo env ~expect_src:src ~round buf in
        let b = buf.Transport.Buf.b and blen = buf.Transport.Buf.len in
        let pos = ref ent0 in
        for _ = 1 to n do
          if !pos + 5 > blen then Wire.fail "worker %d: truncated halo" env.rank;
          let slot = Wire.get_u32 b !pos in
          if slot < n_owned || slot >= n_local then
            Wire.fail "worker %d: halo slot %d out of range" env.rank slot;
          let v : a =
            match Bytes.unsafe_get b (!pos + 4) with
            | '\000' ->
              if !pos + 13 > blen then
                Wire.fail "worker %d: truncated halo entry" env.rank;
              let w = Wire.get_i64 b (!pos + 5) in
              pos := !pos + 13;
              (Obj.magic w : a)
            | '\001' ->
              if !pos + 9 > blen then
                Wire.fail "worker %d: truncated halo entry" env.rank;
              let ml = Wire.get_u32 b (!pos + 5) in
              if !pos + 9 + ml > blen then
                Wire.fail "worker %d: truncated halo marshal" env.rank;
              let v = Marshal.from_bytes (Bytes.sub b (!pos + 9) ml) 0 in
              pos := !pos + 9 + ml;
              v
            | c -> Wire.fail "worker %d: bad state tag %d" env.rank (Char.code c)
          in
          Array.unsafe_set st slot v;
          match env.sched with
          | Engine.Full_scan -> ()
          | Engine.Active_set ->
            let h = slot - n_owned in
            for j = sh.Plan.halo_off.(h) to sh.Plan.halo_off.(h + 1) - 1 do
              mark (Array.unsafe_get sh.Plan.halo_adj j)
            done
        done;
        if !pos <> blen then
          Wire.fail "worker %d: trailing halo bytes" env.rank)
      env.in_fds;
    if !n_out > 0 then begin
      halo_words := !halo_words + !n_out;
      incr exchange_rounds
    end;
    n_out := 0
  in
  (* initial stats: the pre-round totals the coordinator's decision loop
     starts from *)
  send_stats env ~round:0 ~active:!n_active ~changed:0 ~unhalted:!unhalted
    ~halo_words:0;
  let stop = ref None in
  while !stop = None do
    let action, round = recv_decision env in
    if action = Wire.a_step then begin
      compute round;
      let changed = commit () in
      exchange round;
      (match env.sched with
      | Engine.Full_scan -> ()
      | Engine.Active_set -> advance ());
      send_stats env ~round ~active:!n_active ~changed ~unhalted:!unhalted
        ~halo_words:!halo_words
    end
    else stop := Some (action = Wire.a_stop_result)
  done;
  let states =
    if !stop = Some true then begin
      let buf = Buffer.create (n_owned * 13) in
      for l = 0 to n_owned - 1 do
        let r = Obj.repr st.(l) in
        if Obj.is_int r then begin
          let w = Bytes.create 9 in
          Bytes.set w 0 '\000';
          Wire.put_i64 w 1 (Obj.obj r : int);
          Buffer.add_bytes buf w
        end
        else begin
          let m = Marshal.to_bytes st.(l) [] in
          let w = Bytes.create 5 in
          Bytes.set w 0 '\001';
          Wire.put_u32 w 1 (Bytes.length m);
          Buffer.add_bytes buf w;
          Buffer.add_bytes buf m
        end
      done;
      Some (Buffer.to_bytes buf)
    end
    else None
  in
  send_epilogue env ~halo_words:!halo_words ~exchange_rounds:!exchange_rounds
    ~states

(* ---------- the flat executor (flat.ml's core over the sub-CSR) ---------- *)

(* The kernel builder receives the shard's l2g so node-indexed inputs
   (source ids, priority arrays) can be remapped into local space; the
   kernel then runs against a ctx whose CSR is the shard's sub-CSR —
   valid because adj entries are local indices into the local slab. *)
let run_flat env ~(kernel_for : l2g:int array -> Flat.kernel) =
  let sh = env.sh in
  let n_owned = sh.Plan.n_owned and n_local = sh.Plan.n_local in
  let k = kernel_for ~l2g:sh.Plan.l2g in
  let slots = k.Flat.slots in
  if slots <> env.slots then
    Wire.fail "worker %d: kernel slots %d disagree with prologue %d" env.rank
      slots env.slots;
  let init = k.Flat.init in
  let cur =
    Array.init (n_local * slots) (fun i ->
        init ~node:(i / slots) ~slot:(i mod slots))
  in
  let nxt = Array.sub cur 0 (n_owned * slots) in
  let ctx =
    {
      Flat.n_base = n_local;
      n_present = n_owned;
      off = sh.Plan.off;
      adj = sh.Plan.adj;
      eid = sh.Plan.eid;
      slots;
      cur;
      nxt;
    }
  in
  let scratch = Array.make (max 1 k.Flat.scratch_words) 0 in
  let xoff = sh.Plan.xoff
  and xshard = sh.Plan.xshard
  and xslot = sh.Plan.xslot in
  let routes = xoff.(n_owned) in
  let active = ref (Array.init n_owned (fun l -> l)) in
  let n_active = ref n_owned in
  let pending = ref (Array.make (max 1 n_owned) 0) in
  let n_pending = ref 0 in
  let dirty = Array.make (max 1 n_owned) false in
  let out_dst = Array.make (max 1 routes) 0
  and out_slot = Array.make (max 1 routes) 0
  and out_src = Array.make (max 1 routes) 0 in
  let n_out = ref 0 in
  let halo_words = ref 0 and exchange_rounds = ref 0 in
  let halt = if env.halting then k.Flat.halted else None in
  let halted_f = Array.make (max 1 n_owned) true in
  let unhalted = ref 0 in
  (match halt with
  | None -> ()
  | Some h ->
    for l = 0 to n_owned - 1 do
      let hv = h ctx ~node:l in
      halted_f.(l) <- hv;
      if not hv then incr unhalted
    done);
  let mark l =
    if not (Array.unsafe_get dirty l) then begin
      Array.unsafe_set dirty l true;
      Array.unsafe_set !pending !n_pending l;
      incr n_pending
    end
  in
  let step = k.Flat.step in
  let compute round =
    let act = !active in
    for i = 0 to !n_active - 1 do
      step ctx ~scratch ~round ~node:(Array.unsafe_get act i)
    done
  in
  let commit () =
    let changed = ref 0 in
    let act = !active in
    let off = sh.Plan.off and adj = sh.Plan.adj in
    for i = 0 to !n_active - 1 do
      let l = Array.unsafe_get act i in
      let base = l * slots in
      if Flat.words_differ cur nxt base 0 slots then begin
        incr changed;
        Array.blit nxt base cur base slots;
        (match halt with
        | None -> ()
        | Some h ->
          let hv = h ctx ~node:l in
          if hv <> Array.unsafe_get halted_f l then begin
            Array.unsafe_set halted_f l hv;
            if hv then decr unhalted else incr unhalted
          end);
        (match env.sched with
        | Engine.Full_scan -> ()
        | Engine.Active_set ->
          mark l;
          for j = Array.unsafe_get off l to Array.unsafe_get off (l + 1) - 1 do
            let u = Array.unsafe_get adj j in
            if u < n_owned then mark u
          done);
        for x = Array.unsafe_get xoff l to Array.unsafe_get xoff (l + 1) - 1 do
          let kk = !n_out in
          Array.unsafe_set out_dst kk (Array.unsafe_get xshard x);
          Array.unsafe_set out_slot kk (Array.unsafe_get xslot x);
          Array.unsafe_set out_src kk l;
          n_out := kk + 1
        done
      end
    done;
    !changed
  in
  let advance () =
    let kk = !n_pending in
    let pnd = !pending in
    if kk * 8 >= n_owned then begin
      let idx = ref 0 in
      for l = 0 to n_owned - 1 do
        if Array.unsafe_get dirty l then begin
          Array.unsafe_set dirty l false;
          Array.unsafe_set pnd !idx l;
          incr idx
        end
      done
    end
    else
      for i = 0 to kk - 1 do
        Array.unsafe_set dirty (Array.unsafe_get pnd i) false
      done;
    let old = !active in
    active := pnd;
    pending := old;
    n_active := kk;
    n_pending := 0
  in
  let n_outp = Array.length env.out_fds in
  let peer_of = Array.make (max 1 env.size) (-1) in
  Array.iteri (fun i (r, _) -> peer_of.(r) <- i) env.out_fds;
  let obufs = Array.init n_outp (fun _ -> Transport.Buf.create 4096) in
  let opos = Array.make (max 1 n_outp) 0 in
  let ocnt = Array.make (max 1 n_outp) 0 in
  let entry_bytes = 4 + (slots * 9) in
  let exchange round =
    for p = 0 to n_outp - 1 do
      opos.(p) <- begin_halo obufs.(p);
      ocnt.(p) <- 0
    done;
    for b = 0 to !n_out - 1 do
      let p = peer_of.(Array.unsafe_get out_dst b) in
      let buf = obufs.(p) in
      let pos = opos.(p) in
      buf.Transport.Buf.len <- pos;
      Transport.Buf.ensure buf (pos + entry_bytes);
      let bb = buf.Transport.Buf.b in
      Wire.put_u32 bb pos (Array.unsafe_get out_slot b);
      let src = Array.unsafe_get out_src b * slots in
      for kk = 0 to slots - 1 do
        let wpos = pos + 4 + (kk * 9) in
        Bytes.unsafe_set bb wpos '\000';
        Wire.put_i64 bb (wpos + 1) (Array.unsafe_get cur (src + kk))
      done;
      opos.(p) <- pos + entry_bytes;
      ocnt.(p) <- ocnt.(p) + 1
    done;
    let outs =
      Array.init n_outp (fun p ->
          finish_halo obufs.(p) ~round ~src:env.rank ~n:ocnt.(p) opos.(p);
          Transport.make_out (snd env.out_fds.(p)) obufs.(p).Transport.Buf.b
            opos.(p))
    in
    let ins =
      Array.mapi
        (fun i (_, fd) -> Transport.make_in fd env.ibufs.(i))
        env.in_fds
    in
    Transport.exchange ~outs ~ins;
    Array.iteri
      (fun i (src, _) ->
        let buf = env.ibufs.(i) in
        let n, ent0 = open_halo env ~expect_src:src ~round buf in
        let b = buf.Transport.Buf.b and blen = buf.Transport.Buf.len in
        if ent0 + (n * entry_bytes) <> blen then
          Wire.fail "worker %d: halo size mismatch" env.rank;
        let pos = ref ent0 in
        for _ = 1 to n do
          let slot = Wire.get_u32 b !pos in
          if slot < n_owned || slot >= n_local then
            Wire.fail "worker %d: halo slot %d out of range" env.rank slot;
          let base = slot * slots in
          for kk = 0 to slots - 1 do
            let wpos = !pos + 4 + (kk * 9) in
            (match Bytes.unsafe_get b wpos with
            | '\000' -> ()
            | c ->
              Wire.fail "worker %d: bad flat state tag %d" env.rank
                (Char.code c));
            Array.unsafe_set cur (base + kk) (Wire.get_i64 b (wpos + 1))
          done;
          pos := !pos + entry_bytes;
          match env.sched with
          | Engine.Full_scan -> ()
          | Engine.Active_set ->
            let h = slot - n_owned in
            for j = sh.Plan.halo_off.(h) to sh.Plan.halo_off.(h + 1) - 1 do
              mark (Array.unsafe_get sh.Plan.halo_adj j)
            done
        done)
      env.in_fds;
    if !n_out > 0 then begin
      halo_words := !halo_words + !n_out;
      incr exchange_rounds
    end;
    n_out := 0
  in
  send_stats env ~round:0 ~active:!n_active ~changed:0 ~unhalted:!unhalted
    ~halo_words:0;
  let stop = ref None in
  while !stop = None do
    let action, round = recv_decision env in
    if action = Wire.a_step then begin
      compute round;
      let changed = commit () in
      exchange round;
      (match env.sched with
      | Engine.Full_scan -> ()
      | Engine.Active_set -> advance ());
      send_stats env ~round ~active:!n_active ~changed ~unhalted:!unhalted
        ~halo_words:!halo_words
    end
    else stop := Some (action = Wire.a_stop_result)
  done;
  let states =
    if !stop = Some true then begin
      let nb = n_owned * slots * 8 in
      let b = Bytes.create nb in
      for i = 0 to (n_owned * slots) - 1 do
        Wire.put_i64 b (i * 8) cur.(i)
      done;
      Some b
    end
    else None
  in
  send_epilogue env ~halo_words:!halo_words ~exchange_rounds:!exchange_rounds
    ~states

(* ---------- process entry ---------- *)

(* Child-side main: receive the prologue, decode the shard, wire up the
   collective tree and halo channels, run [body], report any exception
   as an error frame. Never returns — the caller is a freshly forked
   child and must not unwind into the parent's code. *)
let serve ~rank ~coord ~chans ~(body : env -> unit) =
  let code =
    try
      let cbuf = Transport.Buf.create 4096 in
      (match Transport.recv_typed coord cbuf with
      | Wire.Prologue p ->
        if p.rank <> rank then
          Wire.fail "worker %d: prologue addressed to rank %d" rank p.rank;
        let sh = Plan.decode_shard p.shard in
        if sh.Plan.id <> rank then
          Wire.fail "worker %d: shard %d in prologue" rank sh.Plan.id;
        let shape = Collective.shape_of_code p.shape in
        let fd_of r =
          match
            Array.find_opt (fun (pr, _) -> pr = r) chans
          with
          | Some (_, fd) -> fd
          | None -> Wire.fail "worker %d: no channel to rank %d" rank r
        in
        (* every peer channel goes non-blocking: the exchange pump needs
           single-shot reads/writes, and the blocking-style transport
           helpers park in select on EAGAIN *)
        Array.iter (fun (_, fd) -> Unix.set_nonblock fd) chans;
        let parent = Collective.parent shape rank in
        let env =
          {
            rank;
            size = p.size;
            halting = halting_of_code p.entry;
            sched = sched_of_code p.sched;
            slots = p.slots;
            sh;
            coord;
            parent_fd = (if parent < 0 then None else Some (fd_of parent));
            child_fds =
              Array.of_list
                (List.map fd_of (Collective.children shape ~size:p.size rank));
            out_fds = Array.map (fun r -> (r, fd_of r)) p.out_peers;
            in_fds = Array.map (fun r -> (r, fd_of r)) p.in_peers;
            cbuf;
            ibufs =
              Array.map (fun _ -> Transport.Buf.create 4096) p.in_peers;
          }
        in
        body env
      | _ -> Wire.fail "worker %d: expected prologue" rank);
      0
    with e ->
      let failure, message =
        match e with
        | Failure m -> (true, m)
        | Wire.Proc_failure m -> (false, m)
        | e -> (false, Printexc.to_string e)
      in
      (try
         let img =
           Wire.encode (Wire.Error_frame { src = rank; failure; message })
         in
         Transport.send_frame coord img (Bytes.length img)
       with _ -> ());
      2
  in
  (try
     flush stdout;
     flush stderr
   with _ -> ());
  Unix._exit code
