(** Helpers for decoding checkpoint payloads carried as {!Repr.t} trees.

    Checkpoints travel through the same universal value type the logs use,
    so the binary codec and its CRC framing apply unchanged.  Every
    destructor below raises {!Malformed} instead of [Match_failure] so a
    corrupt-but-CRC-valid (or version-skewed) checkpoint surfaces as a
    recoverable condition: resume catches it and falls back to an earlier
    checkpoint or a full replay — never a wrong verdict. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a

val int : Repr.t -> int
val bool : Repr.t -> bool
val str : Repr.t -> string
val list : Repr.t -> Repr.t list
val pair : Repr.t -> Repr.t * Repr.t

(** Options encode as [List []] / [List [v]]. *)
val opt : Repr.t -> Repr.t option

val of_opt : Repr.t option -> Repr.t

(** [tagged tag payload] wraps a checkpoint payload with its format name
    (e.g. ["checker/2"], ["farm/1"]); [untag tag v] unwraps it, raising
    {!Malformed} on any other tag so format confusion is detected before
    any state is rebuilt. *)
val tagged : string -> Repr.t -> Repr.t

val untag : string -> Repr.t -> Repr.t
