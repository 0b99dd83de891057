module Json = Tl_obs.Json

type item =
  | Crash_nodes of int list
  | Crash_random of int
  | Recover_nodes of int list
  | Drop_links of (int * int) list
  | Kill_ranks of int list

type clause = { round : int; item : item }

type churn_kind = Crash_stop | Crash_recover

type churn = {
  from_round : int;
  to_round : int;
  rate : float;
  kind : churn_kind;
  ttl : int;
}

type t = { seed : int; clauses : clause list; churn : churn option }

let empty = { seed = 0; clauses = []; churn = None }

(* ---------- deterministic PRNG (splitmix64) ----------

   Hand-rolled so schedules never depend on Stdlib.Random's algorithm or
   global state: the event stream is a pure function of (seed, n). *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let sm_next s =
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  (s, mix64 s)

(* Independent per-(round, node) coin for churn: inserting or removing
   explicit clauses never shifts the churn pattern, because this never
   touches the sequential stream. *)
let hash3 seed r v =
  mix64
    (Int64.add
       (mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.of_int r)))
       (Int64.of_int v))

(* top 53 bits as a float in [0, 1) *)
let u01 h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

(* ---------- events ---------- *)

type event = Crash of int | Recover of int | Drop of int * int | Kill of int

let event_to_string = function
  | Crash v -> Printf.sprintf "crash:%d" v
  | Recover v -> Printf.sprintf "recover:%d" v
  | Drop (a, b) -> Printf.sprintf "drop:%d-%d" a b
  | Kill r -> Printf.sprintf "kill:%d" r

let pp_event fmt e = Format.pp_print_string fmt (event_to_string e)

(* ---------- validation ---------- *)

let max_churn_window = 10_000

let check t =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec clauses = function
    | [] -> (
      match t.churn with
      | None -> Ok t
      | Some c ->
        if c.from_round < 1 then bad "churn window starts before round 1"
        else if c.to_round < c.from_round then
          bad "churn window %d-%d is empty" c.from_round c.to_round
        else if c.to_round - c.from_round >= max_churn_window then
          bad "churn window %d-%d spans more than %d rounds" c.from_round
            c.to_round max_churn_window
        else if not (Float.is_finite c.rate && c.rate >= 0. && c.rate <= 1.)
        then bad "churn rate %g outside [0, 1]" c.rate
        else if c.ttl < 1 then bad "churn ttl %d < 1" c.ttl
        else Ok t)
    | { round; item } :: rest ->
      if round < 1 then bad "event at round %d (rounds are 1-based)" round
      else begin
        match item with
        | Crash_random k when k < 1 -> bad "crash_random %d < 1" k
        | Crash_nodes [] | Recover_nodes [] | Drop_links [] | Kill_ranks [] ->
          bad "empty event list at round %d" round
        | _ -> clauses rest
      end
  in
  clauses t.clauses

(* ---------- JSON grammar ---------- *)

let kind_to_string = function
  | Crash_stop -> "crash-stop"
  | Crash_recover -> "crash-recover"

let kind_of_string = function
  | "crash-stop" -> Ok Crash_stop
  | "crash-recover" -> Ok Crash_recover
  | s -> Error (Printf.sprintf "unknown churn kind %S" s)

let pair_to_string (a, b) = Printf.sprintf "%d-%d" a b

let pair_of_string s =
  match String.index_opt s '-' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some a, Some b when a >= 0 && b >= 0 && a <> b ->
      Ok (min a b, max a b)
    | _ -> Error (Printf.sprintf "invalid pair %S (expected a-b)" s))
  | _ -> Error (Printf.sprintf "invalid pair %S (expected a-b)" s)

(* unlike rank pairs, a window is ordered: "4-2" is an error the
   validator must see, not a pair to normalize *)
let window_of_string s =
  match String.index_opt s '-' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some a, Some b -> Ok (a, b)
    | _ -> Error (Printf.sprintf "invalid round window %S" s))
  | _ -> (
    (* a single round "r" means the window [r, r] *)
    match int_of_string_opt s with
    | Some r -> Ok (r, r)
    | None -> Error (Printf.sprintf "invalid round window %S" s))

let to_json t =
  let clause c =
    let ints l = Json.Arr (List.map (fun v -> Json.Num (float_of_int v)) l) in
    let item =
      match c.item with
      | Crash_nodes l -> ("crash", ints l)
      | Crash_random k -> ("crash_random", Json.Num (float_of_int k))
      | Recover_nodes l -> ("recover", ints l)
      | Drop_links l ->
        ("drop", Json.Arr (List.map (fun p -> Json.Str (pair_to_string p)) l))
      | Kill_ranks l -> ("kill", ints l)
    in
    Json.Obj [ ("round", Json.Num (float_of_int c.round)); item ]
  in
  let base =
    [
      ("seed", Json.Num (float_of_int t.seed));
      ("events", Json.Arr (List.map clause t.clauses));
    ]
  in
  let churn =
    match t.churn with
    | None -> []
    | Some c ->
      [
        ( "churn",
          Json.Obj
            [
              ("rounds", Json.Str (pair_to_string (c.from_round, c.to_round)));
              ("rate", Json.Num c.rate);
              ("kind", Json.Str (kind_to_string c.kind));
              ("ttl", Json.Num (float_of_int c.ttl));
            ] );
      ]
  in
  Json.Obj (base @ churn)

let ( let* ) = Result.bind

let int_field ?default name j =
  match Json.member name j with
  | Some v -> (
    match Json.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S is not an integer" name))
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))

let int_list_of name j =
  match Json.to_list j with
  | None -> Error (Printf.sprintf "field %S is not an array" name)
  | Some l ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> (
        match Json.to_int v with
        | Some i -> go (i :: acc) rest
        | None -> Error (Printf.sprintf "field %S has a non-integer entry" name))
    in
    go [] l

let clause_of_json j =
  let* round = int_field "round" j in
  let item =
    match
      ( Json.member "crash" j,
        Json.member "crash_random" j,
        Json.member "recover" j,
        Json.member "drop" j,
        Json.member "kill" j )
    with
    | Some v, None, None, None, None ->
      let* l = int_list_of "crash" v in
      Ok (Crash_nodes l)
    | None, Some v, None, None, None -> (
      match Json.to_int v with
      | Some k -> Ok (Crash_random k)
      | None -> Error "field \"crash_random\" is not an integer")
    | None, None, Some v, None, None ->
      let* l = int_list_of "recover" v in
      Ok (Recover_nodes l)
    | None, None, None, Some v, None -> (
      match Json.to_list v with
      | None -> Error "field \"drop\" is not an array"
      | Some l ->
        let rec go acc = function
          | [] -> Ok (Drop_links (List.rev acc))
          | s :: rest -> (
            match Json.to_str s with
            | None -> Error "field \"drop\" has a non-string entry"
            | Some s ->
              let* p = pair_of_string s in
              go (p :: acc) rest)
        in
        go [] l)
    | None, None, None, None, Some v ->
      let* l = int_list_of "kill" v in
      Ok (Kill_ranks l)
    | _ ->
      Error
        "event must carry exactly one of crash / crash_random / recover / \
         drop / kill"
  in
  let* item = item in
  Ok { round; item }

let churn_of_json j =
  let* rounds =
    match Option.bind (Json.member "rounds" j) Json.to_str with
    | Some s -> window_of_string s
    | None -> Error "churn is missing field \"rounds\""
  in
  let* rate =
    match Option.bind (Json.member "rate" j) Json.to_float with
    | Some r -> Ok r
    | None -> Error "churn is missing numeric field \"rate\""
  in
  let* kind =
    match Json.member "kind" j with
    | None -> Ok Crash_stop
    | Some v -> (
      match Json.to_str v with
      | Some s -> kind_of_string s
      | None -> Error "churn field \"kind\" is not a string")
  in
  let* ttl = int_field ~default:1 "ttl" j in
  let from_round, to_round = rounds in
  Ok { from_round; to_round; rate; kind; ttl }

let of_json j =
  match j with
  | Json.Obj _ ->
    let* seed = int_field ~default:0 "seed" j in
    let* clauses =
      match Json.member "events" j with
      | None -> Ok []
      | Some v -> (
        match Json.to_list v with
        | None -> Error "field \"events\" is not an array"
        | Some l ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest ->
              let* c = clause_of_json e in
              go (c :: acc) rest
          in
          go [] l)
    in
    let* churn =
      match Json.member "churn" j with
      | None -> Ok None
      | Some c ->
        let* c = churn_of_json c in
        Ok (Some c)
    in
    check { seed; clauses; churn }
  | _ -> Error "fault schedule must be a JSON object"

(* ---------- compact one-liner grammar ---------- *)

let split c s = String.split_on_char c s |> List.filter (fun x -> x <> "")

let ints_of_csv name s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match int_of_string_opt x with
      | Some i -> go (i :: acc) rest
      | None -> Error (Printf.sprintf "%s: invalid integer %S" name x))
  in
  go [] (split ',' s)

let churn_of_spec window args =
  let* from_round, to_round = window_of_string window in
  let fields = split ',' args in
  let rec go acc = function
    | [] -> Ok acc
    | f :: rest -> (
      match String.index_opt f '=' with
      | None -> Error (Printf.sprintf "churn: expected key=value, got %S" f)
      | Some i ->
        let k = String.sub f 0 i
        and v = String.sub f (i + 1) (String.length f - i - 1) in
        let* acc =
          match k with
          | "rate" -> (
            match float_of_string_opt v with
            | Some r -> Ok { acc with rate = r }
            | None -> Error (Printf.sprintf "churn: invalid rate %S" v))
          | "kind" ->
            let* kind = kind_of_string v in
            Ok { acc with kind }
          | "ttl" -> (
            match int_of_string_opt v with
            | Some t -> Ok { acc with ttl = t }
            | None -> Error (Printf.sprintf "churn: invalid ttl %S" v))
          | _ -> Error (Printf.sprintf "churn: unknown key %S" k)
        in
        go acc rest)
  in
  go { from_round; to_round; rate = 0.; kind = Crash_stop; ttl = 1 } fields

let of_spec s =
  let parts = split ';' (String.trim s) in
  let rec go seed clauses churn = function
    | [] -> check { seed; clauses = List.rev clauses; churn }
    | p :: rest ->
      let p = String.trim p in
      if String.length p >= 5 && String.sub p 0 5 = "seed=" then
        match int_of_string_opt (String.sub p 5 (String.length p - 5)) with
        | Some sd -> go sd clauses churn rest
        | None -> Error (Printf.sprintf "invalid seed %S" p)
      else begin
        match String.index_opt p '@' with
        | None -> Error (Printf.sprintf "unrecognized spec item %S" p)
        | Some i -> (
          let name = String.sub p 0 i in
          let tail = String.sub p (i + 1) (String.length p - i - 1) in
          match String.index_opt tail ':' with
          | None -> Error (Printf.sprintf "%s: expected %s@ROUND:ARGS" name name)
          | Some j -> (
            let rs = String.sub tail 0 j in
            let args = String.sub tail (j + 1) (String.length tail - j - 1) in
            if name = "churn" then
              let* c = churn_of_spec rs args in
              go seed clauses (Some c) rest
            else
              match int_of_string_opt rs with
              | None -> Error (Printf.sprintf "%s: invalid round %S" name rs)
              | Some round ->
                let* item =
                  match name with
                  | "crash" ->
                    let* l = ints_of_csv "crash" args in
                    Ok (Crash_nodes l)
                  | "crash_random" -> (
                    match int_of_string_opt args with
                    | Some k -> Ok (Crash_random k)
                    | None ->
                      Error
                        (Printf.sprintf "crash_random: invalid count %S" args))
                  | "recover" ->
                    let* l = ints_of_csv "recover" args in
                    Ok (Recover_nodes l)
                  | "drop" ->
                    let rec pairs acc = function
                      | [] -> Ok (Drop_links (List.rev acc))
                      | x :: r ->
                        let* pr = pair_of_string x in
                        pairs (pr :: acc) r
                    in
                    pairs [] (split ',' args)
                  | "kill" ->
                    let* l = ints_of_csv "kill" args in
                    Ok (Kill_ranks l)
                  | _ -> Error (Printf.sprintf "unknown event kind %S" name)
                in
                go seed ({ round; item } :: clauses) churn rest))
      end
  in
  if parts = [] then Error "empty fault spec"
  else go 0 [] None parts

let of_arg s =
  if Sys.file_exists s && not (Sys.is_directory s) then begin
    match Json.parse_file s with
    | j -> of_json j
    | exception Json.Parse_error m ->
      Error (Printf.sprintf "%s: %s" s m)
    | exception Sys_error m -> Error m
  end
  else if String.length s > 0 && s.[0] = '{' then begin
    match Json.parse s with
    | j -> of_json j
    | exception Json.Parse_error m -> Error m
  end
  else of_spec s

(* ---------- instantiation ---------- *)

let instantiate t ~n =
  (match check t with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Schedule.instantiate: " ^ m));
  List.iter
    (fun c ->
      let chk l =
        List.iter
          (fun v ->
            if v < 0 || v >= n then
              invalid_arg
                (Printf.sprintf "Schedule.instantiate: node %d outside [0, %d)"
                   v n))
          l
      in
      match c.item with
      | Crash_nodes l | Recover_nodes l -> chk l
      | Crash_random _ | Drop_links _ | Kill_ranks _ -> ())
    t.clauses;
  let alive = Array.make n true in
  let n_alive = ref n in
  let rng = ref (mix64 (Int64.of_int t.seed)) in
  let draw () =
    let s, v = sm_next !rng in
    rng := s;
    v
  in
  let by_round = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let cur = try Hashtbl.find by_round c.round with Not_found -> [] in
      Hashtbl.replace by_round c.round (c.item :: cur))
    t.clauses;
  Hashtbl.iter (fun r l -> Hashtbl.replace by_round r (List.rev l)) by_round;
  let pending_recover : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  (* a rate-0 window draws no casualty: its coins are never walked *)
  let churn =
    match t.churn with Some c when c.rate > 0. -> Some c | _ -> None
  in
  (* The rounds that can emit an event, walked in ascending order: the
     clause rounds, the churn window, and the rounds a churn casualty is
     due back. A casualty of round r is due at r + ttl, so the due
     rounds arrive in ascending order and a FIFO holds them. *)
  let clause_rounds =
    ref (List.sort_uniq compare (List.map (fun c -> c.round) t.clauses))
  in
  let due_rounds = Queue.create () in
  let next_round cur =
    let candidates =
      (match !clause_rounds with r :: _ -> [ r ] | [] -> [])
      @ (match churn with
        | Some c when cur < c.to_round -> [ max (cur + 1) c.from_round ]
        | _ -> [])
      @ Option.to_list (Queue.peek_opt due_rounds)
    in
    match candidates with
    | [] -> None
    | r :: rest -> Some (List.fold_left min r rest)
  in
  let out = ref [] in
  let emit r e = out := (r, e) :: !out in
  let crash r v =
    if alive.(v) then begin
      alive.(v) <- false;
      decr n_alive;
      emit r (Crash v)
    end
  in
  let recover r v =
    if not alive.(v) then begin
      alive.(v) <- true;
      incr n_alive;
      emit r (Recover v)
    end
  in
  let visit r =
    (match !clause_rounds with
    | r' :: rest when r' = r -> clause_rounds := rest
    | _ -> ());
    if Queue.peek_opt due_rounds = Some r then ignore (Queue.pop due_rounds);
    (* ttl recoveries first: a churn casualty rejoins before new faults *)
    (match Hashtbl.find_opt pending_recover r with
    | Some vs -> List.iter (recover r) (List.sort compare vs)
    | None -> ());
    (match Hashtbl.find_opt by_round r with
    | None -> ()
    | Some items ->
      List.iter
        (fun item ->
          match item with
          | Crash_nodes l -> List.iter (crash r) l
          | Recover_nodes l -> List.iter (recover r) l
          | Drop_links l -> List.iter (fun (a, b) -> emit r (Drop (a, b))) l
          | Kill_ranks l -> List.iter (fun k -> emit r (Kill k)) l
          | Crash_random k ->
            let want = min k !n_alive in
            let got = ref 0 in
            while !got < want do
              let h = draw () in
              let v =
                Int64.to_int (Int64.rem (Int64.shift_right_logical h 1)
                                (Int64.of_int n))
              in
              if alive.(v) then begin
                crash r v;
                incr got
              end
            done)
        items);
    (match churn with
    | Some c when r >= c.from_round && r <= c.to_round ->
      for v = 0 to n - 1 do
        if alive.(v) && u01 (hash3 t.seed r v) < c.rate then begin
          crash r v;
          match c.kind with
          | Crash_stop -> ()
          | Crash_recover when c.ttl <= max_int - r ->
            (* a recovery past the last representable round never fires *)
            let due = r + c.ttl in
            let cur =
              match Hashtbl.find_opt pending_recover due with
              | Some l -> l
              | None ->
                Queue.push due due_rounds;
                []
            in
            Hashtbl.replace pending_recover due (v :: cur)
          | Crash_recover -> ()
        end
      done
    | _ -> ())
  in
  let rec walk cur =
    match next_round cur with
    | None -> ()
    | Some r ->
      visit r;
      walk r
  in
  walk 0;
  List.rev !out
