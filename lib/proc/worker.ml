(* The worker side of the process backend: one forked process per shard.

   A worker inherits the run's closures (init/step/equal/halted, or the
   flat kernel builder) through fork — closures never cross the wire —
   but its shard sub-CSR arrives as a Plan.encode_shard image inside the
   prologue frame and is decoded here, so the data path a real multi-host
   deployment would need is the one actually exercised.

   Per round (decision "step r" from the collective tree), [run] drives
   the shard-local round body of Tl_shard.Local — the one the in-process
   Shard backend runs:

     compute + commit  →  halo exchange (the route buffer drained into
     one frame per out-neighbor, pumped bidirectionally under select;
     received frames applied in ascending source rank, exactly the
     in-process exchange order)  →  advance  →  stats allreduce up the
     tree (active/changed/unhalted/halo_words summed component-wise).

   What differs per layout is the store — boxed states (Stepper.boxed)
   or a flat int slab (Flat.store), the whole-graph steppers' own —
   each with its state words from Codec. *)

module Engine = Tl_engine.Engine
module Flat = Tl_engine.Flat
module Plan = Tl_shard.Plan
module Local = Tl_shard.Local
module Stepper = Tl_engine.Stepper

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
  csr : Stepper.csr;  (* Local.csr sh *)
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

(* ---------- halo frames ---------- *)

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

(* ---------- state stores ---------- *)

(* What one round body needs of a layout: the shard-local store, plus
   the state words of its halo entries and epilogue image (Codec). *)
type store = {
  local : Stepper.store;
  put : Transport.Buf.t -> int -> int -> int;
      (* [put buf pos l]: append owned local [l]'s words at [pos], return
         the end *)
  get : Bytes.t -> int -> int -> int -> int;
      (* [get b pos stop slot]: decode words at [pos] into ghost [slot],
         return the next position *)
  image : unit -> bytes;  (* the owned states, for the epilogue *)
}

let halo_where env = Printf.sprintf "worker %d: halo" env.rank

let boxed env ~init ~step ~equal ~halted =
  let st, local =
    Stepper.boxed ~l2g:env.sh.Plan.l2g env.csr ~init ~step ~equal ~halted
  in
  {
    local;
    put = (fun buf pos l -> Codec.put_boxed buf pos (Array.unsafe_get st l));
    get = Codec.get_boxed ~where:(halo_where env) st;
    image = (fun () -> Codec.boxed_image st env.sh.Plan.n_owned);
  }

(* The flat int-slab store over the shard's sub-CSR. The kernel builder
   receives the shard's l2g so node-indexed inputs (source ids, priority
   arrays) can be remapped into local space; the kernel then runs
   against a ctx whose CSR is the shard's sub-CSR — valid because adj
   entries are local indices into the local slab. *)
let flat env ~(kernel_for : l2g:int array -> Flat.kernel) =
  let k = kernel_for ~l2g:env.sh.Plan.l2g in
  let slots = k.Flat.slots in
  if slots <> env.slots then
    Wire.fail "worker %d: kernel slots %d disagree with prologue %d" env.rank
      slots env.slots;
  let ctx, local = Flat.store env.csr ~workers:1 ~halting:env.halting k in
  let cur = ctx.Flat.cur in
  {
    local;
    put = Codec.put_flat cur ~slots;
    get = Codec.get_flat ~where:(halo_where env) cur ~slots;
    image = (fun () -> Codec.flat_image cur (env.sh.Plan.n_owned * slots));
  }

(* ---------- the round loop ---------- *)

let run env store =
  let sh = env.sh in
  let n_owned = sh.Plan.n_owned and n_local = sh.Plan.n_local in
  let loc = Local.create sh env.csr ~sched:env.sched store.local in
  let core = Local.stepper loc in
  (* halo out: one reusable frame buffer per out-peer; [peer_of] maps a
     route's target rank to its buffer *)
  let n_outp = Array.length env.out_fds in
  let peer_of = Array.make (max 1 env.size) (-1) in
  Array.iteri (fun i (r, _) -> peer_of.(r) <- i) env.out_fds;
  let obufs = Array.init n_outp (fun _ -> Transport.Buf.create 4096) in
  let opos = Array.make (max 1 n_outp) 0 in
  let ocnt = Array.make (max 1 n_outp) 0 in
  let append ~dst ~slot ~src n =
    for b = 0 to n - 1 do
      let p = peer_of.(dst.(b)) in
      let buf = obufs.(p) and pos = opos.(p) in
      buf.Transport.Buf.len <- pos;
      Transport.Buf.ensure buf (pos + 4);
      Wire.put_u32 buf.Transport.Buf.b pos slot.(b);
      opos.(p) <- store.put buf (pos + 4) src.(b);
      ocnt.(p) <- ocnt.(p) + 1
    done;
    n
  in
  let exchange round =
    for p = 0 to n_outp - 1 do
      opos.(p) <- begin_halo obufs.(p);
      ocnt.(p) <- 0
    done;
    Local.drain loc append;
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
          if !pos + 4 > blen then
            Wire.fail "worker %d: truncated halo" env.rank;
          let slot = Wire.get_u32 b !pos in
          if slot < n_owned || slot >= n_local then
            Wire.fail "worker %d: halo slot %d out of range" env.rank slot;
          pos := store.get b (!pos + 4) blen slot;
          Local.ghost_written loc slot
        done;
        if !pos <> blen then
          Wire.fail "worker %d: trailing halo bytes" env.rank)
      env.in_fds
  in
  let stats ~round ~changed =
    send_stats env ~round ~active:(Stepper.n_active core) ~changed
      ~unhalted:(Stepper.unhalted core) ~halo_words:(Local.halo_words loc)
  in
  (* initial stats: the pre-round totals the coordinator's decision loop
     starts from *)
  stats ~round:0 ~changed:0;
  let rec loop () =
    let action, round = recv_decision env in
    if action = Wire.a_step then begin
      Stepper.compute core ~par:1 ~round;
      let changed = Stepper.commit core in
      exchange round;
      Stepper.advance core;
      stats ~round ~changed;
      loop ()
    end
    else action = Wire.a_stop_result
  in
  let ship = loop () in
  send_epilogue env ~halo_words:(Local.halo_words loc)
    ~exchange_rounds:(Local.exchange_rounds loc)
    ~states:(if ship then Some (store.image ()) else None)

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
            csr = Local.csr sh;
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
