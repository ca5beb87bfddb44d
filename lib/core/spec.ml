type kind = Mutator | Observer | Internal

let pp_kind ppf k =
  Fmt.string ppf
    (match k with Mutator -> "mutator" | Observer -> "observer" | Internal -> "internal")

module type S = sig
  type state

  val name : string
  val init : unit -> state
  val kind : string -> kind
  val apply : state -> mid:string -> args:Repr.t list -> ret:Repr.t -> (state, string) result
  val observe : state -> mid:string -> args:Repr.t list -> ret:Repr.t -> bool
  val view : state -> Repr.t
  val snapshot : state -> state
  val save : state -> Repr.t option
  val load : Repr.t -> state
end

type t = (module S)

module type KEYED = sig
  include S

  val view_at : state -> Repr.t -> Repr.t option
  val touches : mid:string -> args:Repr.t list -> Repr.t list
end

type keyed = (module KEYED)

(* Specs are passed around as [(module S)], so the keyed extension of a spec
   made by [keyed] is found again by the physical identity of that value.
   The table is weak in its keys: a spec nobody holds is forgotten. *)
module Registry = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash (module M : S) = Hashtbl.hash M.name
end)

let registry = Registry.create 8
let registry_lock = Mutex.create ()

let keyed (k : keyed) : t =
  let module K = (val k) in
  let s = (module K : S) in
  Mutex.protect registry_lock (fun () -> Registry.replace registry s k);
  s

let as_keyed (s : t) = Mutex.protect registry_lock (fun () -> Registry.find_opt registry s)
