type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  session : int;
}

type t = { mutable on : bool; mutable next : int; mutable closed : span list }

let create ~enabled = { on = enabled; next = 0; closed = [] }
let enabled t = t.on
let set_enabled t on = t.on <- on

let with_span t ?parent ~session name f =
  if not t.on then f (-1)
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start = Unix.gettimeofday () in
    let close () =
      t.closed <-
        { id; name; start; stop = Unix.gettimeofday (); parent; session }
        :: t.closed
    in
    match f id with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.closed

(* Union length of the children's intervals, clipped to [s]. *)
let covered children s =
  let clipped =
    List.filter_map
      (fun c ->
        let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_index spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with Some p -> Hashtbl.add tbl p s | None -> ())
    spans;
  tbl

let self_in tbl s =
  Float.max 0. (s.stop -. s.start -. covered (Hashtbl.find_all tbl s.id) s)

let self_time spans s = self_in (children_index spans) s

let self_times spans =
  let kids = children_index spans in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec root s =
    match Option.bind s.parent (Hashtbl.find_opt by_id) with
    | Some p -> root p
    | None -> s.name
  in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = (root s, s.name) in
      let total, count =
        Option.value ~default:(0., 0) (Hashtbl.find_opt acc key)
      in
      Hashtbl.replace acc key (total +. self_in kids s, count + 1))
    spans;
  Hashtbl.fold (fun (r, n) (total, count) l -> (r, n, total, count) :: l) acc []
  |> List.sort compare

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%s,\"session\":%d}\n"
            s.id s.name s.start s.stop
            (match s.parent with Some p -> string_of_int p | None -> "null")
            s.session)
        spans)
