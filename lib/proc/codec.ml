(* State words: how node states cross the wire, one encoding per layout.
   The worker's halo pump writes and reads them in halo entries, the
   worker's epilogue writes a shard's owned states, and the coordinator
   reads those back into the run's result (see wire.mli for the frame
   grammar around them).

   - boxed: one tagged word per state — tag 0 + i64 for an immediate
     value (the zero-allocation path), tag 1 + mlen:u32 + Marshal bytes
     for a boxed one. Halo entries and epilogue images alike.
   - flat: a halo entry carries the node's [slots] int words as tag-0
     words; the epilogue ships the raw [n_owned * slots] i64 words.

   Writers grow the target buffer ([buf.len] is set to [pos] first, so
   growth keeps the bytes before it). Readers check every length
   against [stop] before an unsafe load; a malformed word raises
   [Wire.Proc_failure] naming [where]. *)

module Plan = Tl_shard.Plan

let put_int b pos v =
  Bytes.unsafe_set b pos '\000';
  Wire.put_i64 b (pos + 1) v

let truncated where = Wire.fail "%s: truncated state word" where
let bad_tag where c = Wire.fail "%s: bad state tag %d" where (Char.code c)

(* ---------- boxed ---------- *)

let put_boxed (buf : Transport.Buf.t) pos v =
  buf.len <- pos;
  let r = Obj.repr v in
  if Obj.is_int r then begin
    Transport.Buf.ensure buf (pos + 9);
    put_int buf.b pos (Obj.obj r : int);
    pos + 9
  end
  else begin
    let m = Marshal.to_bytes v [] in
    let ml = Bytes.length m in
    Transport.Buf.ensure buf (pos + 5 + ml);
    Bytes.unsafe_set buf.b pos '\001';
    Wire.put_u32 buf.b (pos + 1) ml;
    Bytes.blit m 0 buf.b (pos + 5) ml;
    pos + 5 + ml
  end

(* decode the word at [pos] into [dst.(i)]; returns the next position *)
let get_boxed (type a) ~where (dst : a array) b pos stop i =
  if pos >= stop then truncated where;
  match Bytes.unsafe_get b pos with
  | '\000' ->
    if pos + 9 > stop then truncated where;
    Array.unsafe_set dst i (Obj.magic (Wire.get_i64 b (pos + 1)) : a);
    pos + 9
  | '\001' ->
    if pos + 5 > stop then truncated where;
    let ml = Wire.get_u32 b (pos + 1) in
    if pos + 5 + ml > stop then truncated where;
    Array.unsafe_set dst i (Marshal.from_bytes (Bytes.sub b (pos + 5) ml) 0);
    pos + 5 + ml
  | c -> bad_tag where c

let boxed_image st n =
  let buf = Transport.Buf.create (9 * n) in
  let pos = ref 0 in
  for l = 0 to n - 1 do
    pos := put_boxed buf !pos st.(l)
  done;
  Bytes.sub buf.b 0 !pos

let read_boxed states sh b =
  let stop = Bytes.length b in
  let pos = ref 0 in
  for l = 0 to sh.Plan.n_owned - 1 do
    pos := get_boxed ~where:"epilogue" states b !pos stop sh.Plan.l2g.(l)
  done;
  if !pos <> stop then Wire.fail "trailing epilogue state bytes"

(* ---------- flat ---------- *)

let put_flat slab ~slots (buf : Transport.Buf.t) pos l =
  let next = pos + (9 * slots) in
  buf.len <- pos;
  Transport.Buf.ensure buf next;
  for k = 0 to slots - 1 do
    put_int buf.b (pos + (9 * k)) (Array.unsafe_get slab ((l * slots) + k))
  done;
  next

let get_flat ~where slab ~slots b pos stop slot =
  let next = pos + (9 * slots) in
  if next > stop then truncated where;
  for k = 0 to slots - 1 do
    let w = pos + (9 * k) in
    let c = Bytes.unsafe_get b w in
    if c <> '\000' then bad_tag where c;
    Array.unsafe_set slab ((slot * slots) + k) (Wire.get_i64 b (w + 1))
  done;
  next

let flat_image slab n =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Wire.put_i64 b (8 * i) slab.(i)
  done;
  b

let read_flat ~slots slab sh b =
  let n_owned = sh.Plan.n_owned and l2g = sh.Plan.l2g in
  if Bytes.length b <> n_owned * slots * 8 then
    Wire.fail "flat epilogue states: %d bytes for %d words" (Bytes.length b)
      (n_owned * slots);
  for l = 0 to n_owned - 1 do
    for k = 0 to slots - 1 do
      slab.((l2g.(l) * slots) + k) <- Wire.get_i64 b (((l * slots) + k) * 8)
    done
  done
