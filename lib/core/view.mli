(** Implementation-side view definitions ([viewI], paper §5, §6.3–6.4).

    A view extracts the canonical abstract contents from the shadow replay
    of the implementation's shared state.  [Full] recomputes the whole view
    at every commit.  [Keyed] is the incremental scheme of §6.4: a
    subject-supplied state machine is fed the variables written since the
    previous commit and reports how the bag of (key, value) pairs changed,
    so the evaluator can tell which keys a commit touched without
    rebuilding the view.  [Pair] composes the views of two structures
    living in the same log (their variable spaces must be disjoint); it
    matches a specification composed with {!Spec_compose}. *)

type lookup = string -> Repr.t option

(** Reads and edits of the view's bag of (key, value) pairs. *)
type edit = {
  at : Repr.t -> Repr.t list;  (** [at key]: the values the bag holds at [key] *)
  add : Repr.t -> Repr.t -> unit;  (** [add key value]: one more pair *)
  remove : Repr.t -> Repr.t -> unit;  (** [remove key value]: one pair fewer *)
}

type keyed = {
  start : unit -> lookup -> string list -> edit -> unit;
      (** [start ()] makes a fresh incremental instance with an empty view;
          it is called once per evaluator and again at every {!reset}.
          The instance is then called at each commit with the replay's
          lookup and the variables whose visible value changed since its
          previous call, and must [edit] the bag so it equals the view of
          the replay.  Removing a pair that is not in the bag is a bug of
          the instance. *)
}

type t =
  | Full of (lookup -> Repr.t)
  | Keyed of keyed
  | Pair of t * t

(** [canonical_of_assoc kvs] sorts an association list into the canonical
    [List [Pair (k, v); ...]] form both view sides use.  A key held twice
    appears twice. *)
val canonical_of_assoc : (Repr.t * Repr.t) list -> Repr.t

(** [projected ~keys_of_var ~project] is the [Keyed] view of a structure
    whose value at a key can be projected on its own: [keys_of_var var] are
    the keys a write to [var] may affect (often one), [project lookup key]
    the current value at [key], [None] when absent. *)
val projected :
  keys_of_var:(string -> Repr.t list) -> project:(lookup -> Repr.t -> Repr.t option) -> t

(** Evaluator state for a view over a replay. *)
type eval

val make_eval : t -> eval

(** [recompute eval replay] returns the whole current [viewI].  [Keyed]
    components are brought up to date from the replay's dirty set, which
    this consumes, and the canonical list is assembled from their tables. *)
val recompute : eval -> Replay.t -> Repr.t

(** [incremental eval] is true when [eval] is a top-level [Keyed] view, the
    only shape {!delta} answers with [Entries]. *)
val incremental : eval -> bool

(** What changed at a commit.  [Entries] lists keys with the values the
    implementation now holds at each (sorted; [[]] when absent, two or more
    when it holds a key more than once). *)
type delta = Whole of Repr.t | Entries of (Repr.t * Repr.t list) list

(** [delta eval replay ~touched] brings [eval] up to date with the replay
    (consuming its dirty set) and returns, for a top-level [Keyed] view,
    the entries of every key whose entries changed since the previous call,
    plus those of every key in [touched].  The first call after
    {!make_eval} or {!reset}, and every call on a [Full] or [Pair] view,
    returns the whole view instead, as {!recompute} would. *)
val delta : eval -> Replay.t -> touched:Repr.t list -> delta

(** Keys re-derived ([Keyed] components: keys whose entries changed) plus
    keys handed out only because they were [touched] — the per-commit work
    of the incremental view, exposed for the ablation benchmark. *)
val projections : eval -> int

(** [reset eval] drops every [Keyed] table and restarts its instance.  Used
    when a checker restores from a checkpoint: with all replay variables
    marked dirty, the next {!recompute} or {!delta} rebuilds the tables from
    the restored replay, and that {!delta} answers with the whole view. *)
val reset : eval -> unit
