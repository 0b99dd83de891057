(* The tlp binary wire format. See wire.mli for the grammar. *)

exception Proc_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Proc_failure ("tlp: " ^ s))) fmt
let version = 2

(* 1 GiB: far above any legal frame (the prologue of a 1e6-node shard is
   ~16 MB), small enough that a corrupted length prefix fails loudly
   instead of triggering a giant allocation. *)
let max_frame_bytes = 1 lsl 30
let k_prologue = 1
let k_halo = 2
let k_stats = 3
let k_decision = 4
let k_epilogue = 5
let k_error = 6

(* ---------- zero-allocation scalar codec ----------

   Manual byte stores: Bytes.set_int64_le takes a boxed Int64, which
   without flambda allocates on every call — exactly what the halo path
   must not do. unsafe accessors are safe here because every caller
   sizes its buffer before packing (see Transport.Buf.ensure). *)

let put_i64 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (pos + 4) (Char.unsafe_chr ((v lsr 32) land 0xff));
  Bytes.unsafe_set b (pos + 5) (Char.unsafe_chr ((v lsr 40) land 0xff));
  Bytes.unsafe_set b (pos + 6) (Char.unsafe_chr ((v lsr 48) land 0xff));
  Bytes.unsafe_set b (pos + 7) (Char.unsafe_chr ((v asr 56) land 0xff))

(* no local [c i] closure in the getters: without flambda a closure is
   a minor-heap allocation per call, and these run once per state word
   on the halo path (the budget test in test_proc.ml counts words) *)
let get_i64 b pos =
  let low =
    Char.code (Bytes.unsafe_get b pos)
    lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (pos + 3)) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (pos + 4)) lsl 32)
    lor (Char.code (Bytes.unsafe_get b (pos + 5)) lsl 40)
    lor (Char.code (Bytes.unsafe_get b (pos + 6)) lsl 48)
  in
  (* sign-extend the top byte: OCaml ints are 63-bit, so byte 7 carries
     bits 56.. plus the sign and round-trips exactly *)
  low lor (((Char.code (Bytes.unsafe_get b (pos + 7)) lxor 0x80) - 0x80) lsl 56)

let put_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_u32 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (pos + 3)) lsl 24)

let put_u16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let get_u16 b pos =
  Char.code (Bytes.unsafe_get b pos)
  lor (Char.code (Bytes.unsafe_get b (pos + 1)) lsl 8)

(* ---------- hot-path frame assembly ---------- *)

let frame_overhead = 9

let begin_frame b kind =
  Bytes.unsafe_set b 4 'T';
  Bytes.unsafe_set b 5 'L';
  Bytes.unsafe_set b 6 'P';
  Bytes.unsafe_set b 7 (Char.unsafe_chr version);
  Bytes.unsafe_set b 8 (Char.unsafe_chr kind);
  frame_overhead

let end_frame b pos =
  put_u32 b 0 (pos - 4);
  pos

let check_payload b ~pos ~len =
  if len < 5 then fail "short payload (%d bytes)" len;
  if Bytes.get b pos <> 'T' || Bytes.get b (pos + 1) <> 'L'
     || Bytes.get b (pos + 2) <> 'P'
  then fail "bad magic";
  let ver = Char.code (Bytes.get b (pos + 3)) in
  if ver <> version then fail "version mismatch (got %d, expected %d)" ver version;
  Char.code (Bytes.get b (pos + 4))

(* ---------- typed frames ---------- *)

type frame =
  | Prologue of {
      rank : int;
      size : int;
      entry : int;
      sched : int;
      shape : int;
      slots : int;
      in_peers : int array;
      out_peers : int array;
      cuts : (int * int) list;
      shard : bytes;
    }
  | Halo of { round : int; src : int; n : int; payload : bytes }
  | Stats of {
      round : int;
      src : int;
      active : int;
      changed : int;
      unhalted : int;
      halo_words : int;
    }
  | Decision of { action : int; round : int }
  | Epilogue of {
      src : int;
      halo_words : int;
      exchange_rounds : int;
      drops : (int * int * int) list;
      states : bytes option;
    }
  | Error_frame of { src : int; failure : bool; message : string }

let a_step = 1
let a_stop_result = 2
let a_stop = 3

(* Control frames are built through a Buffer — none of them is on the
   per-round halo path (stats/decision frames are 9-38 bytes and only
   O(procs) of them flow per round; the tiny buffer churn is noise). *)

let buf_i64 buf v =
  let b = Bytes.create 8 in
  put_i64 b 0 v;
  Buffer.add_bytes buf b

let buf_u32 buf v =
  let b = Bytes.create 4 in
  put_u32 b 0 v;
  Buffer.add_bytes buf b

let buf_u16 buf v =
  let b = Bytes.create 2 in
  put_u16 b 0 v;
  Buffer.add_bytes buf b

let encode fr =
  let body = Buffer.create 64 in
  let kind =
    match fr with
    | Prologue p ->
      buf_u16 body p.rank;
      buf_u16 body p.size;
      Buffer.add_char body (Char.chr p.entry);
      Buffer.add_char body (Char.chr p.sched);
      buf_u16 body p.shape;
      buf_u16 body p.slots;
      buf_u16 body (Array.length p.in_peers);
      Array.iter (buf_u16 body) p.in_peers;
      buf_u16 body (Array.length p.out_peers);
      Array.iter (buf_u16 body) p.out_peers;
      buf_u32 body (List.length p.cuts);
      List.iter (fun (r, peer) -> buf_u32 body r; buf_u16 body peer) p.cuts;
      buf_u32 body (Bytes.length p.shard);
      Buffer.add_bytes body p.shard;
      k_prologue
    | Halo h ->
      buf_u32 body h.round;
      buf_u16 body h.src;
      buf_u32 body h.n;
      Buffer.add_bytes body h.payload;
      k_halo
    | Stats s ->
      buf_u32 body s.round;
      buf_u16 body s.src;
      buf_i64 body s.active;
      buf_i64 body s.changed;
      buf_i64 body s.unhalted;
      buf_i64 body s.halo_words;
      k_stats
    | Decision d ->
      Buffer.add_char body (Char.chr d.action);
      buf_u32 body d.round;
      k_decision
    | Epilogue e ->
      buf_u16 body e.src;
      buf_i64 body e.halo_words;
      buf_i64 body e.exchange_rounds;
      buf_u32 body (List.length e.drops);
      List.iter
        (fun (r, dst, m) -> buf_u32 body r; buf_u16 body dst; buf_i64 body m)
        e.drops;
      (match e.states with
      | None -> Buffer.add_char body '\000'
      | Some st ->
        Buffer.add_char body '\001';
        buf_u32 body (Bytes.length st);
        Buffer.add_bytes body st);
      k_epilogue
    | Error_frame e ->
      buf_u16 body e.src;
      Buffer.add_char body (if e.failure then '\001' else '\000');
      buf_u32 body (String.length e.message);
      Buffer.add_string body e.message;
      k_error
  in
  let blen = Buffer.length body in
  let total = frame_overhead + blen in
  let b = Bytes.create total in
  let pos = begin_frame b kind in
  Buffer.blit body 0 b pos blen;
  ignore (end_frame b total);
  b

(* A bounds-checked reader over one payload. *)
type rd = { rb : Bytes.t; mutable rpos : int; rend : int }

let need r n =
  if r.rpos + n > r.rend then
    fail "truncated frame body (at %d, want %d, have %d)" r.rpos n
      (r.rend - r.rpos)

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.rb r.rpos) in
  r.rpos <- r.rpos + 1;
  v

let r_u16 r =
  need r 2;
  let v = get_u16 r.rb r.rpos in
  r.rpos <- r.rpos + 2;
  v

let r_u32 r =
  need r 4;
  let v = get_u32 r.rb r.rpos in
  r.rpos <- r.rpos + 4;
  v

let r_i64 r =
  need r 8;
  let v = get_i64 r.rb r.rpos in
  r.rpos <- r.rpos + 8;
  v

let r_bytes r n =
  need r n;
  let b = Bytes.sub r.rb r.rpos n in
  r.rpos <- r.rpos + n;
  b

let r_done r =
  if r.rpos <> r.rend then fail "trailing frame bytes (%d)" (r.rend - r.rpos)

let decode_payload b ~pos ~len =
  let kind = check_payload b ~pos ~len in
  let r = { rb = b; rpos = pos + 5; rend = pos + len } in
  let fr =
    if kind = k_prologue then begin
      let rank = r_u16 r in
      let size = r_u16 r in
      let entry = r_u8 r in
      let sched = r_u8 r in
      let shape = r_u16 r in
      let slots = r_u16 r in
      let n_in = r_u16 r in
      let in_peers = Array.init n_in (fun _ -> r_u16 r) in
      let n_out = r_u16 r in
      let out_peers = Array.init n_out (fun _ -> r_u16 r) in
      let cuts =
        List.init (r_u32 r) (fun _ ->
            let round = r_u32 r in
            (round, r_u16 r))
      in
      let shard = r_bytes r (r_u32 r) in
      Prologue
        { rank; size; entry; sched; shape; slots; in_peers; out_peers; cuts;
          shard }
    end
    else if kind = k_halo then begin
      let round = r_u32 r in
      let src = r_u16 r in
      let n = r_u32 r in
      let payload = r_bytes r (r.rend - r.rpos) in
      Halo { round; src; n; payload }
    end
    else if kind = k_stats then begin
      let round = r_u32 r in
      let src = r_u16 r in
      let active = r_i64 r in
      let changed = r_i64 r in
      let unhalted = r_i64 r in
      let halo_words = r_i64 r in
      Stats { round; src; active; changed; unhalted; halo_words }
    end
    else if kind = k_decision then begin
      let action = r_u8 r in
      let round = r_u32 r in
      if action < a_step || action > a_stop then
        fail "unknown decision action %d" action;
      Decision { action; round }
    end
    else if kind = k_epilogue then begin
      let src = r_u16 r in
      let halo_words = r_i64 r in
      let exchange_rounds = r_i64 r in
      let drops =
        List.init (r_u32 r) (fun _ ->
            let round = r_u32 r in
            let dst = r_u16 r in
            (round, dst, r_i64 r))
      in
      let states =
        match r_u8 r with
        | 0 -> None
        | 1 -> Some (r_bytes r (r_u32 r))
        | k -> fail "bad epilogue states flag %d" k
      in
      Epilogue { src; halo_words; exchange_rounds; drops; states }
    end
    else if kind = k_error then begin
      let src = r_u16 r in
      let failure = r_u8 r <> 0 in
      let message = Bytes.to_string (r_bytes r (r_u32 r)) in
      Error_frame { src; failure; message }
    end
    else fail "unknown frame kind %d" kind
  in
  r_done r;
  fr

let decode b =
  let total = Bytes.length b in
  if total < 4 then fail "short frame (%d bytes)" total;
  let len = get_u32 b 0 in
  if len > max_frame_bytes then fail "oversized frame (%d bytes)" len;
  if total <> 4 + len then
    fail "length prefix %d disagrees with image size %d" len total;
  decode_payload b ~pos:4 ~len

module Reassembler = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }
  let pending t = t.len

  let ensure t extra =
    let want = t.len + extra in
    if want > Bytes.length t.buf then begin
      let cap = ref (max 256 (2 * Bytes.length t.buf)) in
      while !cap < want do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf 0 nb 0 t.len;
      t.buf <- nb
    end

  let feed t chunk ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length chunk then
      invalid_arg "Wire.Reassembler.feed: bad slice";
    ensure t len;
    Bytes.blit chunk pos t.buf t.len len;
    t.len <- t.len + len;
    let out = ref [] in
    let consumed = ref 0 in
    let continue = ref true in
    while !continue do
      let avail = t.len - !consumed in
      if avail < 4 then continue := false
      else begin
        let flen = get_u32 t.buf !consumed in
        if flen > max_frame_bytes then fail "oversized frame (%d bytes)" flen;
        (* a visible header is validated even before the body arrives,
           so bad magic / bad version fail at first contact *)
        if avail >= 9 then
          ignore (check_payload t.buf ~pos:(!consumed + 4) ~len:(min flen (avail - 4)));
        if avail < 4 + flen then continue := false
        else begin
          out := decode_payload t.buf ~pos:(!consumed + 4) ~len:flen :: !out;
          consumed := !consumed + 4 + flen
        end
      end
    done;
    if !consumed > 0 then begin
      Bytes.blit t.buf !consumed t.buf 0 (t.len - !consumed);
      t.len <- t.len - !consumed
    end;
    List.rev !out
end
