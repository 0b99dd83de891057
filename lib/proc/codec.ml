(* State words: how a flat kernel's int slab crosses the wire. The
   worker's halo pump writes and reads them in halo entries, the
   worker's epilogue writes a shard's owned words, and the coordinator
   reads those back into the run's result (see wire.mli for the frame
   grammar around them).

   A halo entry carries the node's [slots] int words, each a tag-0
   state word (tag byte 0, then an i64); the epilogue ships the raw
   [n_owned * slots] i64 words.

   Writers grow the target buffer ([buf.len] is set to [pos] first, so
   growth keeps the bytes before it). Readers check every length
   against [stop] before a load; a malformed word raises
   [Wire.Proc_failure] naming [where]. *)

module Plan = Tl_shard.Plan

let put slab ~slots (buf : Transport.Buf.t) pos l =
  let next = pos + (9 * slots) in
  buf.len <- pos;
  Transport.Buf.ensure buf next;
  for k = 0 to slots - 1 do
    let w = pos + (9 * k) in
    Bytes.unsafe_set buf.b w '\000';
    Wire.put_i64 buf.b (w + 1) (Array.unsafe_get slab ((l * slots) + k))
  done;
  next

let get ~where slab ~slots b pos stop slot =
  let next = pos + (9 * slots) in
  if next > stop then Wire.fail "%s: truncated state word" where;
  for k = 0 to slots - 1 do
    let w = pos + (9 * k) in
    let c = Bytes.unsafe_get b w in
    if c <> '\000' then Wire.fail "%s: bad state tag %d" where (Char.code c);
    Array.unsafe_set slab ((slot * slots) + k) (Wire.get_i64 b (w + 1))
  done;
  next

let image slab n =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Wire.put_i64 b (8 * i) slab.(i)
  done;
  b

let read ~slots slab sh b =
  let n_owned = sh.Plan.n_owned and l2g = sh.Plan.l2g in
  if Bytes.length b <> n_owned * slots * 8 then
    Wire.fail "flat epilogue states: %d bytes for %d words" (Bytes.length b)
      (n_owned * slots);
  for l = 0 to n_owned - 1 do
    for k = 0 to slots - 1 do
      slab.((l2g.(l) * slots) + k) <- Wire.get_i64 b (((l * slots) + k) * 8)
    done
  done
