(** The tl_serve daemon: admission, batching, execution, IO loops.

    One server value owns a bounded {!Jobq} (the backpressure boundary)
    and a bounded instance cache (graph + ID assignment + lazily-built
    semi-graph and {!Tl_engine.Topology} snapshot per
    {!Protocol.spec_key}). The instance entry is the only place reuse
    across requests lives — the library keeps no process-wide compile
    or plan cache — so [cache_slots] bounds every graph and snapshot the
    daemon holds. Running statistics live in the
    process-wide {!Tl_obs.Metrics} registry (enabled by {!create}, which
    also bridges the engine/pool hooks): the [stats] control reports
    per-server deltas against the registry values captured at creation,
    the [metrics] control scrapes the whole registry as a
    [tl_metrics = 1] snapshot, and the [tail] control returns the flight
    recorder's recent request/exchange events (also dumped to stderr
    automatically when a request fails). The
    daemon is {e single-threaded by design}: requests are admitted and
    executed on one domain, and parallelism lives below, in the engine's
    domain pool and process backend — exactly the knobs a request
    names.

    {2 Cycle semantics}

    The IO loops ({!run_fd}, {!listen_unix}) work in {e cycles}: block
    until input is available, greedily read every complete line already
    buffered, then hand the burst to {!handle_lines}. A cycle

    + parses each line; malformed JSON or an unknown/invalid request is
      answered immediately with a [bad_request] error;
    + admits valid requests to the job queue — a request arriving on a
      full queue is answered immediately with a structured [rejected]
      error (the backpressure contract: never a hang, never a drop);
    + drains the queue, {e batching} jobs by {!Protocol.spec_key}:
      groups run in first-seen order, members in admission order, so
      same-topology requests reuse one cached instance (and, for
      flood, its compiled snapshot) back to back;
    + answers control messages ([ping]/[stats]/[shutdown] — evaluated
      after the cycle's jobs; [shutdown] acks with a pong and stops the
      loop after the cycle);
    + emits every response in arrival order of its request.

    Requests are validated and dispatched through
    {!Protocol.find_workload}, the (problem, method) table the CLI's
    [solve] runs too: an unknown pair is a [bad_request], a Theorem 12
    method on a non-tree instance a [failed] answer. Results are
    bit-identical to direct one-shot runs for every (engine, pool)
    knob: execution passes the request's
    resolved engine mode to the runs that take one ([flood], [chaos])
    and its pool width to the pipelines, and runs the very same
    pipelines; cache reuse only skips instance construction and
    compilation, never changes inputs. *)

type config = {
  depth : int;  (** job-queue depth (backpressure threshold) *)
  cache_slots : int;  (** instance-cache capacity, [0] disables caching *)
  max_n : int;  (** admission guard: largest accepted instance size *)
}

val default_config : config
(** depth 64, cache_slots 32, max_n 2_000_000. *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on [depth < 1], [cache_slots < 0] or
    [max_n < 1]. *)

val config : t -> config
val shutdown_requested : t -> bool

val stats : t -> (string * int) list
(** Running counters: [received] (solve requests), [served], [rejected],
    [errors], [batches], [max_batch], [queue_depth], [serve:cache_hit],
    [serve:cache_miss], [topo:cache_hit] and [topo:cache_miss]. A flood
    request counts a [topo:] hit when its instance's snapshot was
    already compiled by an earlier request, a miss when it compiles it;
    no other workload touches the snapshot. Every counter starts at [0]
    for each {!create}d server. *)

val handle_request : t -> Protocol.request -> Protocol.response
(** Validate and execute one request directly (no queue, no batching) —
    the pure execution path behind every served job, exposed for the
    differential tests and the load generator's in-process mode. Never
    raises: failures come back as [Error] outcomes. *)

val handle_lines : t -> string list -> string list
(** One full admission / batching / drain cycle over a burst of input
    lines, returning the newline-terminated response lines in arrival
    order. This is exactly what the IO loops execute per cycle. *)

val run_fd : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection: read ndjson requests from the first
    descriptor, write responses to the second, until EOF, a shutdown
    request, or a response write failing with [EPIPE]/[ECONNRESET] (the
    client hung up; the rest of that cycle's responses are dropped). A
    final unterminated line at EOF is processed as a line. Neither
    descriptor is closed. *)

val serve_stdio : t -> unit
(** [run_fd] over stdin/stdout — the pipe-friendly daemon mode. *)

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path], then accept and serve one
    connection at a time until some client sends [shutdown]. The socket
    file is removed on exit. A client error/disconnect never kills the
    daemon. An existing file at [path] is probed with a connect: only a
    provably stale socket (nothing accepting) is replaced — raises
    [Failure] if a live daemon answers there, or if the path holds a
    non-socket file. *)
