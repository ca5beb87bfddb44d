type lookup = string -> Repr.t option
type edit = {
  at : Repr.t -> Repr.t list;
  add : Repr.t -> Repr.t -> unit;
  remove : Repr.t -> Repr.t -> unit;
}
type keyed = { start : unit -> lookup -> string list -> edit -> unit }

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

let canonical_of_assoc kvs =
  Repr.List
    (List.sort Repr.compare (List.map (fun (k, v) -> Repr.Pair (k, v)) kvs))

let projected ~keys_of_var ~project =
  Keyed
    {
      start =
        (fun () lookup dirty edit ->
          List.concat_map keys_of_var dirty
          |> List.sort_uniq Repr.compare
          |> List.iter (fun key ->
                 match (edit.at key, project lookup key) with
                 | [ v ], Some v' when Repr.equal v v' -> ()
                 | before, after ->
                   List.iter (edit.remove key) before;
                   Option.iter (edit.add key) after));
    }

type delta = Whole of Repr.t | Entries of (Repr.t * Repr.t list) list

(* A [Keyed] evaluator owns the key -> entries table: the values the
   implementation holds at each key, sorted (normally one; two when the
   implementation holds a key twice).  [before] is a per-advance working table: the
   entries of every key edited in this advance, as they were before it. *)
type kstate = {
  spec : keyed;
  mutable update : lookup -> string list -> edit -> unit;
  table : (Repr.t, Repr.t list) Hashtbl.t;
  before : (Repr.t, Repr.t list) Hashtbl.t;
  mutable fresh : bool;  (* no advance since creation or [reset] *)
  mutable projections : int;
  edit : edit;
}

type eval = Efull of (lookup -> Repr.t) | Ekeyed of kstate | Epair of eval * eval

let entries_of table key = Option.value ~default:[] (Hashtbl.find_opt table key)

let rec insert_sorted v = function
  | [] -> [ v ]
  | x :: rest as l -> if Repr.compare v x <= 0 then v :: l else x :: insert_sorted v rest

let rec remove_one v = function
  | [] -> []
  | x :: rest -> if Repr.equal x v then rest else x :: remove_one v rest

let make_kstate spec =
  let table = Hashtbl.create 64 and before = Hashtbl.create 16 in
  let touch key =
    let es = entries_of table key in
    if not (Hashtbl.mem before key) then Hashtbl.add before key es;
    es
  in
  let set key = function [] -> Hashtbl.remove table key | es -> Hashtbl.replace table key es in
  let edit =
    {
      at = entries_of table;
      add = (fun key v -> set key (insert_sorted v (touch key)));
      remove = (fun key v -> set key (remove_one v (touch key)));
    }
  in
  { spec; update = spec.start (); table; before; fresh = true; projections = 0; edit }

let rec make_eval = function
  | Full f -> Efull f
  | Keyed spec -> Ekeyed (make_kstate spec)
  | Pair (a, b) -> Epair (make_eval a, make_eval b)

(* Feed one commit's dirty variables to the subject and return the keys
   whose entries differ from before the advance. *)
let advance k lookup dirty =
  k.update lookup dirty k.edit;
  k.fresh <- false;
  let changed =
    Hashtbl.fold
      (fun key es acc ->
        if List.equal Repr.equal es (entries_of k.table key) then acc else key :: acc)
      k.before []
  in
  Hashtbl.reset k.before;
  k.projections <- k.projections + List.length changed;
  changed

let assemble k =
  canonical_of_assoc
    (Hashtbl.fold
       (fun key es acc -> List.fold_left (fun acc v -> (key, v) :: acc) acc es)
       k.table [])

(* The replay's dirty set is drained once per commit and shared by every
   [Keyed] component of the evaluator tree. *)
let rec recompute_dirty eval replay dirty =
  match eval with
  | Efull f -> f (Replay.lookup replay)
  | Ekeyed k ->
    ignore (advance k (Replay.lookup replay) dirty);
    assemble k
  | Epair (a, b) ->
    let va = recompute_dirty a replay dirty in
    let vb = recompute_dirty b replay dirty in
    Repr.Pair (va, vb)

let rec needs_dirty = function
  | Efull _ -> false
  | Ekeyed _ -> true
  | Epair (a, b) -> needs_dirty a || needs_dirty b

let recompute eval replay =
  (* only [Keyed] components consume the dirty set; for an all-[Full] tree,
     skip the per-commit drain (fold + reset + list) — the set stays bounded
     by the number of distinct variable names either way *)
  let dirty = if needs_dirty eval then Replay.take_dirty replay else [] in
  recompute_dirty eval replay dirty

let incremental = function Ekeyed _ -> true | Efull _ | Epair _ -> false

let delta eval replay ~touched =
  match eval with
  | Ekeyed k when not k.fresh ->
    let changed = advance k (Replay.lookup replay) (Replay.take_dirty replay) in
    let extra =
      List.filter (fun key -> not (List.exists (Repr.equal key) changed)) touched
      |> List.sort_uniq Repr.compare
    in
    k.projections <- k.projections + List.length extra;
    Entries (List.map (fun key -> (key, entries_of k.table key)) (changed @ extra))
  | Ekeyed _ | Efull _ | Epair _ -> Whole (recompute eval replay)

let rec projections = function
  | Efull _ -> 0
  | Ekeyed k -> k.projections
  | Epair (a, b) -> projections a + projections b

let rec reset = function
  | Efull _ -> ()
  | Ekeyed k ->
    Hashtbl.reset k.table;
    Hashtbl.reset k.before;
    k.update <- k.spec.start ();
    k.fresh <- true
  | Epair (a, b) ->
    reset a;
    reset b
