(* Exact order statistics, per-request fastest passes and the seeded
   open-loop arrival schedule.

   Quantiles use the nearest-rank definition on the sorted sample: the
   q-quantile of n values is the ceil(q * n)-th smallest (1-based), so
   every reported percentile is a value that was actually measured. The
   log-bucket histograms of Tl_obs.Metrics answer quantiles only to within
   a bucket (up to 19% high), which is too coarse for a regression gate. *)

let sorted values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

let quantile values q =
  let n = Array.length values in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if not (q >= 0. && q <= 1.) then invalid_arg "Stats.quantile: q outside [0, 1]";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  (sorted values).(max 1 rank - 1)

let median values = quantile values 0.5

let quartiles values =
  (quantile values 0.25, quantile values 0.5, quantile values 0.75)

let mean values =
  if Array.length values = 0 then 0.
  else Array.fold_left ( +. ) 0. values /. float_of_int (Array.length values)

(* One request sequence played in several passes: request i's latency is
   its fastest pass. The work is deterministic, so a slower pass measures
   the host, not the program. *)
let fastest_per_request passes =
  match passes with
  | [] -> invalid_arg "Stats.fastest_per_request: no pass"
  | first :: rest ->
    let m = Array.length first in
    if List.exists (fun p -> Array.length p <> m) rest then
      invalid_arg "Stats.fastest_per_request: passes of different lengths";
    Array.init m (fun i -> List.fold_left (fun acc p -> Float.min acc p.(i)) first.(i) rest)

(* The first [count] arrivals of a Poisson process of the given rate:
   exponential gaps drawn by inverse transform from a seeded splitmix64
   stream, so one seed always yields the same due times. Times are
   seconds from the start of the phase. *)
let poisson_arrivals ~seed ~rate ~count =
  if rate <= 0. then invalid_arg "Stats.poisson_arrivals: rate <= 0";
  let prng = Tl_graph.Gen.Prng.create seed in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t -. (Float.log (1. -. Tl_graph.Gen.Prng.float prng) /. rate);
      !t)
