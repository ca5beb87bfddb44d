(* The three workloads and their sessions.

   A session is one independent test program of paper §7.1: the harness
   runs it on the deterministic Coop engine from a seed, so the same
   workload seed always yields the same event arrays.  Sessions are
   generated once, in set-up, and every path replays them. *)

open Vyrd
module Subjects = Vyrd_harness.Subjects
module Harness = Vyrd_harness.Harness
module Prng = Vyrd_sched.Prng
module Farm = Vyrd_pipeline.Farm
module Pass = Vyrd_analysis.Pass
module Monitor = Vyrd_monitor.Monitor

type t = {
  name : string;
  subjects : Subjects.t list;
  level : Log.level;
  threads : int;
  ops : int;
  key_pool : int;
  key_range : int;
  sessions : int;  (** clean sessions *)
  per_round : int;  (** clean sessions each path runs per round *)
  bug_sessions : int;  (** sessions built with one subject's injected bug *)
  analyze : bool;  (** analysis passes and both monitor packs on *)
}

let all =
  [
    {
      name = "hotpath-sessions";
      subjects = Subjects.[ multiset_vector; jvector; string_buffer ];
      level = `View;
      threads = 8;
      ops = 300;
      key_pool = 12;
      key_range = 32;
      sessions = 16;
      per_round = 4;
      bug_sessions = 3;
      analyze = false;
    };
    {
      name = "large-state-view";
      subjects = [ Subjects.blink_tree ];
      level = `View;
      threads = 4;
      ops = 500;
      key_pool = 2048;
      key_range = 4096;
      sessions = 8;
      per_round = 1;
      bug_sessions = 2;
      analyze = false;
    };
    {
      name = "full-analyze";
      subjects = Subjects.[ cache; multiset_vector ];
      level = `Full;
      threads = 4;
      ops = 50;
      key_pool = 12;
      key_range = 32;
      sessions = 16;
      per_round = 2;
      bug_sessions = 3;
      analyze = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* vyrd_check serve/cluster flags that give the daemons this workload's
   checking configuration. *)
let subject_names w = String.concat "," (List.map (fun (s : Subjects.t) -> s.name) w.subjects)

let monitor_specs w = if w.analyze then Monitor.builtin_names else []

let config w seed =
  {
    Harness.threads = w.threads;
    ops_per_thread = w.ops;
    key_pool = w.key_pool;
    key_range = w.key_range;
    seed;
    log_level = w.level;
  }

(* [buggy] is the index of the subject built with its bug, if any. *)
let builds ?buggy w =
  List.mapi (fun i (s : Subjects.t) -> s.build ~bug:(buggy = Some i)) w.subjects

(* [run_into] is the program; its listener (if any) is attached first. *)
let run ?buggy ?(listen = fun (_ : Log.t) -> ()) w seed =
  let log = Log.create ~level:w.level () in
  listen log;
  Harness.run_into ~log (config w seed) (builds ?buggy w);
  log

(* The events subject [i]'s checker sees, as a log plus each event's index
   in the session.  This is how a user checks a multi-structure log offline
   (`vyrd_check check` takes one subject), and the routing rule of the farm:
   a method's call and return go to the subject whose spec knows the method
   (the first one, for unknown methods); commits, writes and commit-block
   brackets follow their thread's open call; writes and brackets outside any
   call go to every subject; reads and lock events to none. *)
type part = { p_subject : Subjects.t; p_log : Log.t; p_index : int array }

let project w (events : Event.t array) =
  let subjects = Array.of_list w.subjects in
  let n = Array.length subjects in
  let owner mid =
    let rec probe i =
      if i >= n then 0
      else
        let module S = (val subjects.(i).Subjects.spec : Spec.S) in
        match S.kind mid with _ -> i | exception Invalid_argument _ -> probe (i + 1)
    in
    probe 0
  in
  let parts = Array.init n (fun _ -> ref []) in
  let current = Hashtbl.create 16 in
  let give i idx ev = parts.(i) := (idx, ev) :: !(parts.(i)) in
  let follow tid idx ev ~outside =
    match Hashtbl.find_opt current tid with Some i -> give i idx ev | None -> outside ()
  in
  Array.iteri
    (fun idx (ev : Event.t) ->
      match ev with
      | Call { tid; mid; _ } ->
        let i = owner mid in
        Hashtbl.replace current tid i;
        give i idx ev
      | Return { tid; mid; _ } ->
        follow tid idx ev ~outside:(fun () -> give (owner mid) idx ev);
        Hashtbl.remove current tid
      | Commit { tid } -> follow tid idx ev ~outside:(fun () -> give 0 idx ev)
      | Write { tid; _ } | Block_begin { tid } | Block_end { tid } ->
        follow tid idx ev ~outside:(fun () ->
            for i = 0 to n - 1 do
              give i idx ev
            done)
      | Read _ | Acquire _ | Release _ -> ())
    events;
  Array.to_list
    (Array.mapi
       (fun i part ->
         let l = List.rev !part in
         let log = Log.create ~level:w.level () in
         List.iter (fun (_, ev) -> Log.append log ev) l;
         { p_subject = subjects.(i); p_log = log; p_index = Array.of_list (List.map fst l) })
       parts)

(* The offline verdict, the reference for every other path: each part
   checked on its own; the violation with the lowest session index wins,
   ties to the earlier subject. *)
let check_indexed parts =
  let verdicts =
    List.map
      (fun p ->
        let report, idx =
          Checker.check_indexed ~mode:`View ~view:p.p_subject.Subjects.view p.p_log
            p.p_subject.Subjects.spec
        in
        (report, Option.map (fun k -> p.p_index.(k)) idx))
      parts
  in
  let earliest a b =
    match (a, b) with
    | (_, Some i), (_, Some j) when j < i -> b
    | (_, None), (_, Some _) -> b
    | _ -> a
  in
  match List.filter (fun (r, _) -> not (Report.is_pass r)) verdicts with
  | [] -> List.hd verdicts
  | f :: rest -> List.fold_left earliest f rest

let shards w =
  List.map
    (fun (s : Subjects.t) -> Farm.shard ~mode:`View ~view:s.view s.name s.spec)
    w.subjects

(* Fresh per session: passes and monitors are stateful. *)
let passes w =
  if w.analyze then Pass.for_level w.level @ [ Monitor.pass (Monitor.builtins ()) ]
  else []

type session = {
  id : int;
  seed : int;
  buggy : int option;  (** the subject built with its bug *)
  events : Event.t array;
  parts : part list;  (** [events] split per subject, see {!project} *)
}

let max_bug_tries = 64

(* Every session seed comes from one stream keyed by the workload seed.
   Clean sessions take the first [w.sessions] draws; each bug session then
   draws candidates, with the bug in subject [j mod #subjects], until the
   offline checker convicts one. *)
let generate w ~seed =
  let rng = Prng.create (seed + 0x5eed) in
  let draw () = Prng.int rng 1_000_000_000 in
  let clean =
    List.init w.sessions (fun id ->
        let seed = draw () in
        let events = Log.snapshot (run w seed) in
        { id; seed; buggy = None; events; parts = project w events })
  in
  let nsubj = List.length w.subjects in
  let buggy =
    List.init w.bug_sessions (fun j ->
        let rec find tries =
          if tries = max_bug_tries then
            failwith
              (Printf.sprintf "%s: no convicted bug session in %d seeds" w.name
                 max_bug_tries)
          else
            let seed = draw () in
            let buggy = Some (j mod nsubj) in
            let events = Log.snapshot (run ?buggy w seed) in
            let parts = project w events in
            if Report.is_pass (fst (check_indexed parts)) then find (tries + 1)
            else { id = w.sessions + j; seed; buggy; events; parts }
        in
        find 0)
  in
  clean @ buggy

let events sessions =
  List.fold_left (fun n s -> n + Array.length s.events) 0 sessions
