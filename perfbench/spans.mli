(** In-memory spans around the benchmark's calls into each layer.

    A span records a name, its start and end (seconds on one clock), the
    span that caused it and the session it belongs to.  Recording is a
    no-op while a recorder is disabled, so the untraced runs pay one branch
    per call.  Spans stay in memory until {!write_jsonl}. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  session : int;
}

type t

(** [create ~enabled] is an empty recorder. *)
val create : enabled:bool -> t

val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** [with_span t ?parent ~session name f] runs [f id], recording its
    duration under a fresh span id when [t] is enabled ([id] is [-1]
    otherwise); a raising [f] still closes its span. *)
val with_span : t -> ?parent:int -> session:int -> string -> (int -> 'a) -> 'a

(** Spans recorded so far, in the order they were closed. *)
val spans : t -> span list

(** [self_time spans s] is [s]'s duration minus the part of its interval
    covered by its children (the spans whose [parent] is [s.id]); children
    that overlap each other are counted once.  Never negative. *)
val self_time : span list -> span -> float

(** [self_times spans] sums {!self_time} per [(root name, name)] pair,
    where the root is the outermost ancestor's name (a root is its own
    root).  Each entry is [(root, name, total seconds, count)], sorted by
    root then name. *)
val self_times : span list -> (string * string * float * int) list

(** [write_jsonl path spans] writes one JSON object per span. *)
val write_jsonl : string -> span list -> unit
