(** The [tlp] binary wire format of the process backend.

    Every message on a coordinator↔worker or worker↔worker channel is a
    {e frame}:

    {v
      frame    := len:u32le payload
      payload  := magic:"TLP" version:u8(=2) kind:u8 body
    v}

    [len] counts the payload bytes (magic included), so a reader can
    always consume exactly one frame without understanding its kind.
    Frame kinds and body grammars ([u16]/[u32] little-endian, [i64] a
    sign-extended 8-byte little-endian OCaml int):

    - {b prologue} (coordinator → worker, once): [rank:u16 size:u16
      entry:u8 sched:u8 shape:u16 slots:u16 n_in:u16 in_peer:u16...
      n_out:u16 out_peer:u16... n_cuts:u32 (round:u32 peer:u16)...
      shard_len:u32 shard_bytes] — the worker's identity, run
      configuration, halo-neighbor sets, the collective-tree shape code,
      its link cuts (no halo entry to [peer] in relative round [round])
      and its {!Tl_shard.Plan.shard} image
      ({!Tl_shard.Plan.encode_shard}). [slots] is the flat kernel's
      state words per node; a worker answers [slots = 0] with an error
      frame ({!Proc_failure} at the coordinator).
    - {b halo} (worker → worker, once per round per out-neighbor):
      [round:u32 src:u16 n:u32 entry...] where each of the [n] entries
      is [slot:u32 word...] — the target's ghost slot and the node's
      [slots] new int words as {e state words}. A state word is
      [tag:u8] (always 0) followed by an [i64]; any other tag is
      rejected.
    - {b stats} (allreduce up the collective tree): [round:u32 src:u16
      active:i64 changed:i64 unhalted:i64 halo_words:i64] — summed
      component-wise at each tree node; the root's totals drive the
      coordinator's termination decision.
    - {b decision} (broadcast down the tree): [action:u8 round:u32]
      with action 1 = step that round, 2 = stop and ship states,
      3 = stop without states (failure path).
    - {b epilogue} (worker → coordinator, once): [src:u16
      halo_words:i64 exchange_rounds:i64 n_drops:u32
      (round:u32 dst:u16 msgs:i64)... has_states:u8 [slen:u32 states]]
      — per-worker counters for span reporting, the cuts that fired
      ([msgs] entries to [dst] skipped, in first-firing order) plus,
      when requested, the owned states in ascending local order: the
      slab's raw [n_owned * slots] [i64] words, untagged.
    - {b error} (worker → coordinator, at most once): [src:u16
      failure:u8 mlen:u32 message] — a worker-side exception;
      [failure=1] means [Failure msg] (re-raised verbatim for parity
      with in-process backends), otherwise it becomes {!Proc_failure}.

    State words and epilogue images are written and read by the
    library-private [Codec] module only.

    Malformed input (bad magic, unknown version, truncated or oversized
    frames) raises {!Proc_failure} with a [tlp:] message — never a crash
    or a silent misparse. *)

exception Proc_failure of string
(** Process-backend failure: wire-format violations, peer disconnects,
    and abnormal worker exits. Carries a human-readable message
    (including the worker's exit status where applicable). *)

val version : int
val max_frame_bytes : int

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Proc_failure} with a [tlp:]-prefixed formatted message. *)

(** {2 Frame kind codes} *)

val k_prologue : int
val k_halo : int
val k_stats : int
val k_decision : int
val k_epilogue : int
val k_error : int

(** {2 Zero-allocation scalar codec}

    Byte-by-byte little-endian stores/loads of unboxed [int]s —
    deliberately not [Bytes.set_int64_le], which boxes an [Int64] on
    every call without flambda. These are the only functions the
    steady-state halo path touches. *)

val put_i64 : Bytes.t -> int -> int -> unit
val get_i64 : Bytes.t -> int -> int
(** Exact round-trip for every OCaml [int] (63-bit, sign-extended). *)

val put_u32 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
val put_u16 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int

(** {2 Hot-path frame assembly}

    A frame image is built in place in a preallocated [Bytes.t]:
    [begin_frame] writes the header and returns the body offset;
    the caller appends body bytes with the scalar codec; [end_frame]
    backpatches the length prefix and returns the total image size. *)

val frame_overhead : int
(** Bytes before the body: 4 (length) + 3 (magic) + 1 (version) +
    1 (kind). *)

val begin_frame : Bytes.t -> int -> int
(** [begin_frame b kind] writes the payload header at offset 4 and
    returns {!frame_overhead}. *)

val end_frame : Bytes.t -> int -> int
(** [end_frame b pos] backpatches the length prefix for a frame whose
    image ends at [pos]; returns [pos]. *)

val check_payload : Bytes.t -> pos:int -> len:int -> int
(** Validate magic and version of a payload (starting at its magic) and
    return the kind byte. Raises {!Proc_failure} on violation. *)

(** {2 Typed frames}

    The structured view used by control channels, tests and the
    reassembler. [Halo] keeps its entry list as opaque payload bytes —
    the executor reads entries in place with the scalar codec. *)

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
      cuts : (int * int) list;  (** (relative round, peer rank) *)
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
      drops : (int * int * int) list;  (** (relative round, dst, msgs) *)
      states : bytes option;
    }
  | Error_frame of { src : int; failure : bool; message : string }

val a_step : int
val a_stop_result : int
val a_stop : int
(** Decision action codes: step the given round / stop and ship owned
    states / stop without states. *)

val encode : frame -> bytes
(** Full wire image (length prefix included). *)

val decode_payload : Bytes.t -> pos:int -> len:int -> frame
(** Decode one payload (starting at its magic, [len] bytes). Raises
    {!Proc_failure} on any malformation. *)

val decode : bytes -> frame
(** Decode a full wire image as produced by {!encode}, checking that
    the length prefix matches the buffer. *)

(** Incremental frame extraction from an arbitrarily-chunked byte
    stream — the reader side of the wire contract, also used directly
    by the chunked-reassembly tests. *)
module Reassembler : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> pos:int -> len:int -> frame list
  (** Append a chunk and return every frame completed by it, in stream
      order. Raises {!Proc_failure} as soon as a malformed header or an
      oversized length prefix is visible. *)

  val pending : t -> int
  (** Bytes buffered awaiting a frame boundary. *)
end
