let is_prime x =
  if x < 2 then false
  else begin
    let rec go d = if d * d > x then true else if x mod d = 0 then false else go (d + 1) in
    go 2
  end

let smallest_prime_geq x =
  let rec go p = if is_prime p then p else go (p + 1) in
  go (max 2 x)

(* Pick the cheapest usable parameters for one reduction step: a digit
   count d >= 2 and the smallest prime q > Δ(d-1). A color becomes the
   polynomial over F_q whose d coefficients are its base-q digits, so q^d
   must cover the palette; two distinct such polynomials (degree < d)
   agree in at most d-1 points, so Δ neighbors rule out at most
   Δ(d-1) < q evaluation points. Growing d lets a smaller q cover the
   palette but raises the floor Δ(d-1) under q; the scan keeps the d with
   the smallest q, and so the smallest new palette q² (the smallest such
   d on ties). *)
let choose_parameters ~max_degree ~palette =
  let power_geq q d target =
    (* q^d >= target, overflow-safe for the sizes at hand *)
    let rec go acc i =
      if acc >= target then true else if i = 0 then false else go (acc * q) (i - 1)
    in
    go 1 d
  in
  let rec scan d best =
    if d > 64 then best
    else begin
      let q = smallest_prime_geq ((max_degree * (d - 1)) + 1) in
      let best =
        if power_geq q d palette then
          match best with
          | Some (qb, _) when qb <= q -> best
          | _ -> Some (q, d)
        else best
      in
      scan (d + 1) best
    end
  in
  match scan 2 None with
  | Some (q, d) -> (q, d)
  | None -> invalid_arg "Linial.choose_parameters: palette too large"

(* digits of c in base q, least significant first: the coefficients of the
   polynomial representing color c *)
let digits c q d =
  let coeffs = Array.make d 0 in
  let rec go c i =
    if i < d then begin
      coeffs.(i) <- c mod q;
      go (c / q) (i + 1)
    end
  in
  go c 0;
  coeffs

let eval_poly coeffs q x =
  (* Horner, mod q *)
  let acc = ref 0 in
  for i = Array.length coeffs - 1 downto 0 do
    acc := ((!acc * x) + coeffs.(i)) mod q
  done;
  !acc

let step ~neighbors ~nodes ~colors ~palette ~max_degree =
  let q, d = choose_parameters ~max_degree ~palette in
  let next = Array.copy colors in
  List.iter
    (fun v ->
      let own = digits colors.(v) q d in
      let neigh = List.map (fun u -> digits colors.(u) q d) (neighbors v) in
      let rec find_x x =
        if x >= q then
          (* cannot happen: at most Δ(d-1) < q bad points *)
          invalid_arg "Linial.step: no evaluation point (coloring not proper?)"
        else
          let mine = eval_poly own q x in
          if List.exists (fun c -> eval_poly c q x = mine) neigh then find_x (x + 1)
          else (x, mine)
      in
      let x, value = find_x 0 in
      next.(v) <- (x * q) + value)
    nodes;
  List.iter (fun v -> colors.(v) <- next.(v)) nodes;
  q * q

(* The (q, d) parameters of every reduction round are a function of the
   (globally known) initial palette alone, so the whole reduction is a
   fixed a-priori schedule that every node computes locally. *)
let schedule ~palette ~max_degree =
  let rec go pal acc =
    let q, d = choose_parameters ~max_degree ~palette:pal in
    if q * q < pal then go (q * q) ((q, d) :: acc) else List.rev acc
  in
  Array.of_list (go palette [])

(* One call evaluates x-major. Per round, each node's base-q digits are
   written once into [digit], indexed by position in [nodes] (not by node
   id, which would cost an n_base × d slab for a small view of a big
   graph). Then for x = 0, 1, ... the nodes' p(x) go into [value],
   indexed by node id, and each pending node whose row holds no equal
   value settles on color x·q + p(x). Nodes settle at the smallest good
   x, as in {!step}; the digits are read from the colors before any node
   of the round settles, so the round stays synchronous.

   x = 0 reads every row, and p(0) is the lowest digit. Few nodes stay
   pending after it, so from x = 1 on a level evaluates only the values
   the pending nodes read: it marks them [unset] in [value] and then
   evaluates the marked ones in position order. *)
let unset = -1

let reduce_csr ~off ~adj ~nodes ~colors ~palette ~max_degree =
  let sched = schedule ~palette ~max_degree in
  let n_rounds = Array.length sched in
  if n_rounds = 0 then (palette, 0)
  else begin
    let k = Array.length nodes in
    let d_max = Array.fold_left (fun acc (_, d) -> max acc d) 0 sched in
    let digit = Array.make (k * d_max) 0 in
    let value = Array.make (Array.length colors) unset in
    let pending = Array.make k 0 in
    let power = Array.make d_max 0 in
    Array.iter
      (fun (q, d) ->
        for i = 0 to k - 1 do
          let c = ref colors.(nodes.(i)) in
          for j = i * d to (i * d) + d - 1 do
            let rest = !c / q in
            digit.(j) <- !c - (rest * q);
            c := rest
          done;
          pending.(i) <- i
        done;
        (* below 2^28, the d <= 64 products of two residues sum below
           max_int, so one [mod] per evaluation suffices *)
        let one_mod = q < 1 lsl 28 in
        let eval i =
          let acc = ref 0 in
          if one_mod then begin
            for j = 0 to d - 1 do
              acc := !acc + (digit.((i * d) + j) * power.(j))
            done;
            !acc mod q
          end
          else begin
            for j = 0 to d - 1 do
              acc := (!acc + (digit.((i * d) + j) * power.(j))) mod q
            done;
            !acc
          end
        in
        let n_pending = ref k and x = ref 0 in
        while !n_pending > 0 do
          if !x >= q then
            (* cannot happen: at most Δ(d-1) < q bad points *)
            invalid_arg "Linial.step: no evaluation point (coloring not proper?)";
          if !x = 0 then
            for i = 0 to k - 1 do
              value.(nodes.(i)) <- digit.(i * d)
            done
          else begin
            let pw = ref 1 in
            for j = 0 to d - 1 do
              power.(j) <- !pw;
              pw := !pw * !x mod q
            done;
            for p = 0 to !n_pending - 1 do
              let v = nodes.(pending.(p)) in
              value.(v) <- unset;
              for j = off.(v) to off.(v + 1) - 1 do
                value.(adj.(j)) <- unset
              done
            done;
            for i = 0 to k - 1 do
              if value.(nodes.(i)) = unset then value.(nodes.(i)) <- eval i
            done
          end;
          let kept = ref 0 in
          for p = 0 to !n_pending - 1 do
            let i = pending.(p) in
            let v = nodes.(i) in
            let mine = value.(v) in
            let j = ref off.(v) and stop = off.(v + 1) in
            while !j < stop && value.(adj.(!j)) <> mine do
              incr j
            done;
            if !j = stop then colors.(v) <- (!x * q) + mine
            else begin
              pending.(!kept) <- i;
              incr kept
            end
          done;
          n_pending := !kept;
          incr x
        done)
      sched;
    let q_last, _ = sched.(n_rounds - 1) in
    (q_last * q_last, n_rounds)
  end

let reduce_topo ~topo ~nodes ~colors ~palette ~max_degree =
  reduce_csr ~off:topo.Tl_engine.Topology.off ~adj:topo.adj
    ~nodes:(Array.of_list nodes) ~colors ~palette ~max_degree

let reduce ~neighbors ~nodes ~colors ~palette ~max_degree =
  let rounds = ref 0 in
  let current = ref palette in
  let continue_ = ref true in
  while !continue_ do
    let q, _d = choose_parameters ~max_degree ~palette:!current in
    if q * q < !current then begin
      current := step ~neighbors ~nodes ~colors ~palette:!current ~max_degree;
      incr rounds
    end
    else continue_ := false
  done;
  (!current, !rounds)
