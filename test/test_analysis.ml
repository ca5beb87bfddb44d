(* lib/analysis: vector clocks, the FastTrack happens-before race detector,
   and the log-discipline linter — including the §8 pin: on a correct
   multiset run the precise happens-before analysis reports zero races on
   the very log where the lockset/reduction baseline flags insert_pair as
   non-reducible (the paper's false-alarm gap), and the level guards added
   for sub-`Full logs. *)

open Vyrd
open Vyrd_sched
open Vyrd_multiset
open Vyrd_analysis
module Reduction = Vyrd_baselines.Reduction

let ev_call tid mid = Event.Call { tid; mid; args = [] }
let ev_ret tid mid = Event.Return { tid; mid; value = Repr.Unit }
let ev_commit tid = Event.Commit { tid }
let ev_write tid var = Event.Write { tid; var; value = Repr.Int 0 }
let ev_read tid var = Event.Read { tid; var }
let ev_acq tid lock = Event.Acquire { tid; lock }
let ev_rel tid lock = Event.Release { tid; lock }
let ev_bb tid = Event.Block_begin { tid }
let ev_be tid = Event.Block_end { tid }

(* --- vector clocks ------------------------------------------------------ *)

let test_vclock_basics () =
  let a = Vclock.create () and b = Vclock.create () in
  Alcotest.(check bool) "zero <= zero" true (Vclock.leq a b);
  Vclock.tick a 1;
  Vclock.tick a 1;
  Vclock.tick b 2;
  Alcotest.(check int) "tick counts" 2 (Vclock.get a 1);
  Alcotest.(check int) "absent component is 0" 0 (Vclock.get a 7);
  Alcotest.(check bool) "incomparable" false (Vclock.leq a b || Vclock.leq b a);
  Vclock.join b a;
  Alcotest.(check bool) "a <= join" true (Vclock.leq a b);
  Alcotest.(check int) "join keeps own component" 1 (Vclock.get b 2);
  let e = Vclock.epoch a 1 in
  Alcotest.(check bool) "epoch <= clock that contains it" true
    (Vclock.epoch_leq e b);
  Alcotest.(check bool) "epoch beyond clock" false
    (Vclock.epoch_leq { Vclock.etid = 1; eclock = 3 } b)

(* --- race detector: hand-crafted logs ----------------------------------- *)

let analyze evs = Racedetect.analyze (Log.of_events evs)

let test_race_unsynchronized_writes () =
  let r =
    analyze
      [
        ev_call 1 "m";
        ev_write 1 "x";
        ev_ret 1 "m";
        ev_call 2 "m";
        ev_write 2 "x";
        ev_ret 2 "m";
      ]
  in
  match r.Racedetect.races with
  | [ { var = "x"; prior; current } ] ->
    Alcotest.(check int) "prior index" 1 prior.Racedetect.index;
    Alcotest.(check int) "current index" 4 current.Racedetect.index;
    Alcotest.(check int) "prior tid" 1 prior.Racedetect.tid;
    Alcotest.(check int) "current tid" 2 current.Racedetect.tid;
    (match (prior.Racedetect.meth, current.Racedetect.meth) with
    | Some p, Some c ->
      Alcotest.(check string) "prior method" "m" p.Racedetect.mid;
      Alcotest.(check int) "prior call index" 0 p.Racedetect.call_index;
      Alcotest.(check int) "current call index" 3 c.Racedetect.call_index
    | _ -> Alcotest.fail "accesses should carry their method executions");
    Alcotest.(check (list string)) "racy methods" [ "m" ] (Racedetect.racy_methods r)
  | rs -> Alcotest.failf "expected exactly one race on x, got %d" (List.length rs)

let test_race_lock_discipline_orders () =
  (* same accesses, but release/acquire on one lock orders them *)
  let r =
    analyze
      [
        ev_acq 1 "l"; ev_write 1 "x"; ev_rel 1 "l";
        ev_acq 2 "l"; ev_write 2 "x"; ev_rel 2 "l";
      ]
  in
  Alcotest.(check (list string)) "no races under a common lock" []
    r.Racedetect.racy_vars;
  (* distinct locks synchronize nothing *)
  let r =
    analyze
      [
        ev_acq 1 "l1"; ev_write 1 "x"; ev_rel 1 "l1";
        ev_acq 2 "l2"; ev_write 2 "x"; ev_rel 2 "l2";
      ]
  in
  Alcotest.(check (list string)) "distinct locks do not order" [ "x" ]
    r.Racedetect.racy_vars

let test_race_read_write () =
  (* unordered read vs write races; two concurrent reads do not *)
  let r = analyze [ ev_read 1 "x"; ev_read 2 "x" ] in
  Alcotest.(check (list string)) "read-read never races" []
    r.Racedetect.racy_vars;
  let r = analyze [ ev_read 1 "x"; ev_read 2 "x"; ev_write 3 "x" ] in
  (match r.Racedetect.races with
  | [ { prior; current; _ } ] ->
    Alcotest.(check int) "earliest racing read chosen" 0 prior.Racedetect.index;
    Alcotest.(check string) "kinds" "read/write"
      ((match prior.Racedetect.kind with `Read -> "read" | `Write -> "write")
      ^ "/"
      ^ match current.Racedetect.kind with `Read -> "read" | `Write -> "write")
  | rs -> Alcotest.failf "expected one read-write race, got %d" (List.length rs));
  (* one race per variable in the report, even with further conflicts *)
  let r = analyze [ ev_write 1 "x"; ev_write 2 "x"; ev_write 3 "x" ] in
  Alcotest.(check int) "deduplicated per variable" 1
    (List.length r.Racedetect.races)

let test_race_spawn_inheritance () =
  (* tid 0's initialization writes happen-before every later thread's first
     event even with no lock in sight (thread creation is not logged) *)
  let r = analyze [ ev_write 0 "x"; ev_write 1 "x"; ev_write 0 "y"; ev_write 2 "y" ] in
  Alcotest.(check (list string))
    "main-thread prefix inherited by first event" [] r.Racedetect.racy_vars;
  (* ... but only the prefix: a tid-0 write after t's first event races *)
  let r = analyze [ ev_write 1 "x"; ev_write 0 "x" ] in
  Alcotest.(check (list string)) "post-spawn main write still races" [ "x" ]
    r.Racedetect.racy_vars

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_race_level_guard () =
  (* satellite of the PR-1 view-on-io guard: analysis below `Full refuses *)
  let log = Log.create ~level:`View () in
  (match Racedetect.analyze log with
  | (_ : Racedetect.result) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the offending level" true
      (contains ~sub:"`View" msg);
    Alcotest.(check bool) "names the analysis" true
      (contains ~sub:"Racedetect.analyze" msg));
  match Reduction.analyze log with
  | (_ : Reduction.result) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "reduction guard names itself" true
      (contains ~sub:"Reduction.analyze" msg)

(* --- qcheck: single-threaded soundness ---------------------------------- *)

(* A single-threaded log is totally ordered by program order: no event
   sequence, however contorted its locking or method structure, may ever be
   reported racy. *)
let single_threaded_events =
  let open QCheck in
  let event =
    map
      (fun (choice, var) ->
        let tid = 3 in
        let var = Printf.sprintf "v%d" var in
        match choice mod 7 with
        | 0 -> ev_read tid var
        | 1 | 2 -> ev_write tid var
        | 3 -> ev_acq tid var
        | 4 -> ev_rel tid var
        | 5 -> ev_call tid var
        | _ -> ev_ret tid var)
      (pair small_nat (int_bound 4))
  in
  list_of_size Gen.(int_range 0 120) event

let prop_single_threaded_race_free =
  QCheck.Test.make ~count:300 ~name:"single-threaded logs are race-free"
    single_threaded_events (fun evs ->
      (Racedetect.analyze (Log.of_events evs)).Racedetect.races = [])

(* --- the §8 pin: lockset/reduction vs happens-before -------------------- *)

let multiset_full_log ?(bugs = []) ~seed () =
  let log = Log.create ~level:`Full () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let ms = Multiset_vector.create ~bugs ~capacity:8 ctx in
      for t = 1 to 3 do
        s.spawn (fun () ->
            let rng = Prng.create (seed + (31 * t)) in
            for _ = 1 to 10 do
              let x = Prng.int rng 5 in
              match Prng.int rng 4 with
              | 0 -> ignore (Multiset_vector.insert ms x)
              | 1 -> ignore (Multiset_vector.insert_pair ms x (x + 1))
              | 2 -> ignore (Multiset_vector.delete ms x)
              | _ -> ignore (Multiset_vector.lookup ms x)
            done)
      done);
  log

let test_hb_vs_lockset_on_correct_multiset () =
  (* the acceptance pin: zero happens-before races on the very log where
     reduction cannot prove insert_pair atomic, and refinement passes *)
  let log = multiset_full_log ~seed:0 () in
  let hb = Racedetect.analyze log in
  Alcotest.(check (list string)) "zero happens-before races" []
    hb.Racedetect.racy_vars;
  let red = Reduction.analyze log in
  Alcotest.(check bool) "insert_pair not reducible" false
    (Reduction.method_atomic red "insert_pair");
  Alcotest.(check bool) "lockset racy vars also empty here" true
    (red.Reduction.racy_vars = []);
  let refinement = Checker.check ~mode:`Io log Multiset_spec.spec in
  Alcotest.(check bool) "refinement accepts the same trace" true
    (Report.is_pass refinement)

let test_hb_confirms_genuine_race () =
  (* with the racy FindSlot the same harness produces true races: the elt
     cells are read without their slot lock, and happens-before agrees with
     the lockset for once *)
  let log =
    multiset_full_log ~bugs:[ Multiset_vector.Racy_find_slot ] ~seed:3 ()
  in
  let hb = Racedetect.analyze log in
  let is_elt v =
    String.length v > 4 && String.sub v (String.length v - 4) 4 = ".elt"
  in
  Alcotest.(check bool) "some elt variable genuinely races" true
    (List.exists is_elt hb.Racedetect.racy_vars);
  Alcotest.(check bool) "a racing access sits inside a method execution" true
    (List.exists
       (fun (r : Racedetect.race) ->
         r.Racedetect.current.Racedetect.meth <> None)
       hb.Racedetect.races)

(* --- linter ------------------------------------------------------------- *)

let lint evs = Lint.check (Log.of_events evs)

let kinds r = List.map (fun (d : Lint.diag) -> Lint.kind_id d.Lint.kind) r.Lint.diags

let test_lint_clean () =
  let r =
    lint
      [
        ev_call 1 "insert";
        ev_acq 1 "l";
        ev_write 1 "x";
        ev_commit 1;
        ev_rel 1 "l";
        ev_ret 1 "insert";
        ev_call 1 "lookup";
        ev_read 1 "x";
        ev_ret 1 "lookup";
      ]
  in
  Alcotest.(check bool) "clean log accepted" true (Lint.ok r);
  Alcotest.(check (list string)) "no diagnostics at all" [] (kinds r)

let test_lint_commit_discipline () =
  let r =
    lint [ ev_call 1 "m"; ev_commit 1; ev_write 1 "x"; ev_commit 1; ev_ret 1 "m" ]
  in
  Alcotest.(check (list string)) "duplicate commit" [ "duplicate-commit" ]
    (kinds r);
  Alcotest.(check bool) "is an error" false (Lint.ok r);
  let r = lint [ ev_call 1 "m"; ev_write 1 "x"; ev_ret 1 "m" ] in
  Alcotest.(check (list string)) "mutation without commit warns"
    [ "uncommitted-mutation" ] (kinds r);
  Alcotest.(check bool) "but only warns" true (Lint.ok r);
  let r = lint [ ev_call 1 "m"; ev_ret 1 "m"; ev_commit 1 ] in
  Alcotest.(check (list string)) "commit after return"
    [ "commit-outside-method" ] (kinds r);
  let r = lint [ ev_call 1 "m"; ev_ret 1 "m"; ev_write 1 "x" ] in
  Alcotest.(check (list string)) "write after return"
    [ "write-outside-method" ] (kinds r)

let test_lint_unbalanced_blocks () =
  (* the acceptance pin: an unbalanced commit block is flagged *)
  let r = lint [ ev_call 1 "m"; ev_bb 1; ev_write 1 "x"; ev_commit 1; ev_ret 1 "m" ] in
  Alcotest.(check (list string)) "unclosed block at return"
    [ "unclosed-block" ] (kinds r);
  Alcotest.(check bool) "unbalanced block is an error" false (Lint.ok r);
  (match r.Lint.diags with
  | [ d ] ->
    Alcotest.(check int) "anchored at the return" 4 d.Lint.position;
    Alcotest.(check int) "on the right thread" 1 d.Lint.tid
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  let r = lint [ ev_call 1 "m"; ev_be 1; ev_ret 1 "m" ] in
  Alcotest.(check (list string)) "stray block-end" [ "unbalanced-block-end" ]
    (kinds r);
  let r = lint [ ev_call 1 "m"; ev_bb 1 ] in
  Alcotest.(check (list string)) "block open at end of log"
    [ "unclosed-block" ] (kinds r)

let test_lint_locks_and_returns () =
  let r = lint [ ev_rel 1 "l" ] in
  Alcotest.(check (list string)) "release without acquire"
    [ "release-without-acquire" ] (kinds r);
  let r = lint [ ev_acq 1 "l"; ev_acq 1 "l"; ev_rel 1 "l"; ev_rel 1 "l" ] in
  Alcotest.(check (list string)) "reentrant locking balanced" [] (kinds r);
  let r = lint [ ev_call 1 "m"; ev_acq 1 "l"; ev_ret 1 "m" ] in
  Alcotest.(check (list string)) "lock held at end of log only warns"
    [ "unreleased-lock" ] (kinds r);
  Alcotest.(check bool) "warning, not error" true (Lint.ok r);
  let r = lint [ ev_ret 1 "m" ] in
  Alcotest.(check (list string)) "return without call"
    [ "return-without-call" ] (kinds r);
  let r = lint [ ev_call 1 "m"; ev_ret 1 "other" ] in
  Alcotest.(check (list string)) "mismatched return" [ "return-mismatch" ]
    (kinds r)

let test_lint_daemon_threads_exempt () =
  (* threads that never call are initialization/daemon threads: their
     writes and commits are §6.2 coarse-grained logging, not violations *)
  let r =
    lint
      [
        ev_write 0 "init";
        ev_call 1 "m"; ev_write 1 "x"; ev_commit 1; ev_ret 1 "m";
        ev_write 9 "daemon.var"; ev_commit 9;
      ]
  in
  Alcotest.(check (list string)) "daemon writes accepted" [] (kinds r)

let test_lint_commit_missing () =
  (* `Io-level shape: calls, returns and commits only.  insert commits on
     T1 but not on T2; lookup never commits anywhere and stays clean (it is
     an observer, not a missing annotation) *)
  let r =
    lint
      [
        ev_call 1 "insert"; ev_commit 1; ev_ret 1 "insert";
        ev_call 2 "insert"; ev_ret 2 "insert";
        ev_call 1 "lookup"; ev_ret 1 "lookup";
      ]
  in
  Alcotest.(check (list string)) "missing commit flagged once"
    [ "commit-missing" ] (kinds r);
  Alcotest.(check bool) "warning, not error" true (Lint.ok r);
  (match r.Lint.diags with
  | [ d ] ->
    Alcotest.(check int) "anchored at the non-committing return" 4
      d.Lint.position;
    Alcotest.(check int) "on the right thread" 2 d.Lint.tid
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  (* at view/full the write-based warning already covers the execution;
     commit-missing must not double-report it *)
  let r =
    lint
      [
        ev_call 1 "insert"; ev_write 1 "x"; ev_commit 1; ev_ret 1 "insert";
        ev_call 2 "insert"; ev_write 2 "x"; ev_ret 2 "insert";
      ]
  in
  Alcotest.(check (list string)) "richer logs keep the write-based warning"
    [ "uncommitted-mutation" ] (kinds r)

let test_lint_real_logs_clean () =
  (* every event the real instrumentation emits obeys the contract *)
  let log = multiset_full_log ~seed:4 () in
  let r = Lint.check log in
  Alcotest.(check int) "no errors on a real multiset log" 0 r.Lint.errors;
  (* the dropped-block mutant breaks the monitor, not the discipline: the
     brackets vanish entirely, which still lints clean — but a log whose
     bracket stream is truncated mid-block does not *)
  Alcotest.(check bool) "real log has events" true (r.Lint.events > 100)

(* --- lock-order graph ---------------------------------------------------- *)

let lockgraph evs = Lockgraph.analyze (Log.of_events evs)

let test_lockgraph_reports_abba () =
  let r =
    lockgraph
      [
        ev_call 1 "m"; ev_acq 1 "a"; ev_acq 1 "b"; ev_rel 1 "b"; ev_rel 1 "a";
        ev_ret 1 "m";
        ev_call 2 "n"; ev_acq 2 "b"; ev_acq 2 "a"; ev_rel 2 "a"; ev_rel 2 "b";
        ev_ret 2 "n";
      ]
  in
  Alcotest.(check bool) "cycle reported" false (Lockgraph.ok r);
  Alcotest.(check (list string)) "locks of the cycle" [ "a"; "b" ]
    (Lockgraph.cyclic_locks r);
  match r.Lockgraph.cycles with
  | [ c ] ->
    Alcotest.(check int) "one witness per edge" 2
      (List.length c.Lockgraph.chosen);
    let tids =
      List.map (fun (w : Lockgraph.witness) -> w.Lockgraph.tid) c.Lockgraph.chosen
    in
    Alcotest.(check bool) "witness tids pairwise distinct" true
      (List.sort_uniq compare tids = List.sort compare tids);
    List.iter
      (fun (w : Lockgraph.witness) ->
        Alcotest.(check bool) "witness holds the edge source" true
          (w.Lockgraph.held <> []);
        match w.Lockgraph.meth with
        | Some m ->
          Alcotest.(check bool) "enclosing method recorded" true
            (m.Lockgraph.mid = "m" || m.Lockgraph.mid = "n")
        | None -> Alcotest.fail "witness should carry its method execution")
      c.Lockgraph.chosen
  | cs -> Alcotest.failf "expected exactly one cycle, got %d" (List.length cs)

let test_lockgraph_gate_suppression () =
  (* same ABBA shape, but both inversions run under a common gate lock: the
     deadlock is unreachable and the cycle must be suppressed *)
  let r =
    lockgraph
      [
        ev_acq 1 "g"; ev_acq 1 "a"; ev_acq 1 "b"; ev_rel 1 "b"; ev_rel 1 "a";
        ev_rel 1 "g";
        ev_acq 2 "g"; ev_acq 2 "b"; ev_acq 2 "a"; ev_rel 2 "a"; ev_rel 2 "b";
        ev_rel 2 "g";
      ]
  in
  Alcotest.(check bool) "no cycle reported" true (Lockgraph.ok r);
  Alcotest.(check bool) "suppression attributed to the gate" true
    (r.Lockgraph.suppressed_gated >= 1);
  Alcotest.(check int) "nothing suppressed as single-thread" 0
    r.Lockgraph.suppressed_single_thread

let test_lockgraph_single_thread_suppression () =
  (* one thread using both orders at different times cannot deadlock with
     itself *)
  let r =
    lockgraph
      [
        ev_acq 1 "a"; ev_acq 1 "b"; ev_rel 1 "b"; ev_rel 1 "a";
        ev_acq 1 "b"; ev_acq 1 "a"; ev_rel 1 "a"; ev_rel 1 "b";
      ]
  in
  Alcotest.(check bool) "no cycle reported" true (Lockgraph.ok r);
  Alcotest.(check bool) "suppressed as single-thread" true
    (r.Lockgraph.suppressed_single_thread >= 1)

let test_lockgraph_reentrant_and_levels () =
  (* a reentrant re-acquisition is not a new edge *)
  let r =
    lockgraph
      [
        ev_acq 1 "a"; ev_acq 1 "a"; ev_rel 1 "a"; ev_acq 1 "b"; ev_rel 1 "b";
        ev_rel 1 "a";
      ]
  in
  Alcotest.(check int) "only the a->b edge" 1 r.Lockgraph.edges;
  Alcotest.(check bool) "clean" true (Lockgraph.ok r);
  (* level-tolerant: a sub-`Full log has no lock events and is trivially
     clean, unlike Racedetect which refuses *)
  let r = Lockgraph.analyze (Log.create ~level:`View ()) in
  Alcotest.(check bool) "`View log trivially clean" true (Lockgraph.ok r);
  Alcotest.(check int) "no locks seen" 0 r.Lockgraph.locks

let test_lockgraph_reentrant_keeps_held_order () =
  (* a reentrant acquire updates the lock's depth where it stands: held
     lists stay innermost-first by outermost acquire *)
  let r =
    lockgraph [ ev_acq 1 "a"; ev_acq 1 "b"; ev_acq 1 "a"; ev_acq 1 "c" ]
  in
  match
    List.find_opt
      (fun (e : Lockgraph.edge) -> e.Lockgraph.src = "b" && e.Lockgraph.dst = "c")
      r.Lockgraph.graph
  with
  | Some { Lockgraph.witnesses = [ w ]; _ } ->
    Alcotest.(check (list string)) "held on b->c" [ "b"; "a" ] w.Lockgraph.held;
    Alcotest.(check int) "witness index" 3 w.Lockgraph.index
  | Some _ -> Alcotest.fail "b->c should carry exactly one witness"
  | None -> Alcotest.fail "no b->c edge"

let prop_lockgraph_single_threaded_clean =
  QCheck.Test.make ~count:300 ~name:"single-threaded logs have no lock cycles"
    single_threaded_events (fun evs ->
      Lockgraph.ok (Lockgraph.analyze (Log.of_events evs)))

(* Threads over disjoint lock namespaces can never form a cross-lock cycle,
   whatever their per-thread acquisition patterns. *)
let disjoint_locks_events =
  let open QCheck in
  let thread_ops = list_of_size Gen.(int_range 0 30) (pair bool (int_bound 3)) in
  map
    (fun (per_thread, schedule) ->
      let queues =
        List.mapi
          (fun i ops ->
            let tid = i + 1 in
            ref
              (List.map
                 (fun (acq, l) ->
                   let lock = Printf.sprintf "t%d.l%d" tid l in
                   if acq then ev_acq tid lock else ev_rel tid lock)
                 ops))
          per_thread
      in
      (* interleave under the generated schedule, preserving program order *)
      let out = ref [] in
      let pick s =
        match List.filter (fun q -> !q <> []) queues with
        | [] -> false
        | live ->
          let q = List.nth live (s mod List.length live) in
          (match !q with
          | e :: rest ->
            out := e :: !out;
            q := rest
          | [] -> assert false);
          true
      in
      List.iter (fun s -> ignore (pick s)) schedule;
      List.iter (fun q -> out := List.rev_append !q !out) queues;
      List.rev !out)
    (pair
       (list_of_size (Gen.int_range 1 4) thread_ops)
       (list_of_size (Gen.int_range 0 200) (int_bound 1000)))

let prop_lockgraph_disjoint_threads_clean =
  QCheck.Test.make ~count:200
    ~name:"threads over disjoint locks have no cycles" disjoint_locks_events
    (fun evs -> Lockgraph.ok (Lockgraph.analyze (Log.of_events evs)))

(* The verdict is a function of each thread's own acquisition order: any two
   interleavings of the same per-thread sequences (shared locks allowed)
   agree on the set of cyclic locks. *)
let shared_locks_threads =
  let open QCheck in
  let thread_ops = list_of_size Gen.(int_range 0 25) (pair bool (int_bound 3)) in
  pair
    (list_of_size (Gen.int_range 1 4) thread_ops)
    (list_of_size (Gen.int_range 0 150) (int_bound 1000))

let interleave per_thread schedule =
  let queues =
    List.mapi
      (fun i ops ->
        let tid = i + 1 in
        ref
          (List.map
             (fun (acq, l) ->
               let lock = Printf.sprintf "l%d" l in
               if acq then ev_acq tid lock else ev_rel tid lock)
             ops))
      per_thread
  in
  let out = ref [] in
  List.iter
    (fun s ->
      match List.filter (fun q -> !q <> []) queues with
      | [] -> ()
      | live -> (
        let q = List.nth live (s mod List.length live) in
        match !q with
        | e :: rest ->
          out := e :: !out;
          q := rest
        | [] -> assert false))
    schedule;
  List.iter (fun q -> out := List.rev_append !q !out) queues;
  List.rev !out

let prop_lockgraph_stable_under_reorder =
  QCheck.Test.make ~count:200
    ~name:"verdict stable under cross-thread reorder" shared_locks_threads
    (fun (per_thread, schedule) ->
      let a = Lockgraph.analyze (Log.of_events (interleave per_thread schedule)) in
      let b = Lockgraph.analyze (Log.of_events (interleave per_thread [])) in
      Lockgraph.cyclic_locks a = Lockgraph.cyclic_locks b
      && Lockgraph.ok a = Lockgraph.ok b)

(* --- analysis passes ----------------------------------------------------- *)

let test_pass_for_level () =
  let names level = List.map (fun p -> p.Pass.name) (Pass.for_level level) in
  Alcotest.(check bool) "race pass only at `Full" true
    (List.mem "race" (names `Full) && not (List.mem "race" (names `View)));
  List.iter
    (fun level ->
      Alcotest.(check bool) "lint and lockgraph at every level" true
        (List.mem "lint" (names level) && List.mem "lockgraph" (names level)))
    [ `Io; `View; `Full ]

let test_pass_lockgraph_diags () =
  let p = Pass.lockgraph () in
  List.iter p.Pass.feed
    [
      ev_acq 1 "a"; ev_acq 1 "b"; ev_rel 1 "b"; ev_rel 1 "a";
      ev_acq 2 "b"; ev_acq 2 "a"; ev_rel 2 "a"; ev_rel 2 "b";
    ];
  let s = p.Pass.finish () in
  Alcotest.(check int) "one error" 1 s.Pass.errors;
  Alcotest.(check bool) "not clean" false (Pass.clean s);
  (match s.Pass.diags with
  | [ d ] ->
    Alcotest.(check string) "diag id" "lock-order-cycle" d.Pass.id;
    Alcotest.(check bool) "text names both locks" true
      (contains ~sub:"a" d.Pass.text && contains ~sub:"b" d.Pass.text)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  (* a clean stream finishes clean *)
  let p = Pass.lockgraph () in
  List.iter p.Pass.feed [ ev_acq 1 "a"; ev_rel 1 "a" ];
  Alcotest.(check bool) "clean stream" true (Pass.clean (p.Pass.finish ()))

let suite =
  [
    ("vclock: basics", `Quick, test_vclock_basics);
    ("racedetect: unsynchronized writes race", `Quick, test_race_unsynchronized_writes);
    ("racedetect: lock discipline orders", `Quick, test_race_lock_discipline_orders);
    ("racedetect: read/write asymmetry", `Quick, test_race_read_write);
    ("racedetect: spawn inheritance", `Quick, test_race_spawn_inheritance);
    ("racedetect+reduction: sub-`Full log refused", `Quick, test_race_level_guard);
    QCheck_alcotest.to_alcotest prop_single_threaded_race_free;
    ("§8 pin: zero HB races where reduction alarms", `Quick, test_hb_vs_lockset_on_correct_multiset);
    ("§8 pin: genuine race confirmed by both", `Quick, test_hb_confirms_genuine_race);
    ("lint: clean log", `Quick, test_lint_clean);
    ("lint: commit discipline", `Quick, test_lint_commit_discipline);
    ("lint: unbalanced commit blocks", `Quick, test_lint_unbalanced_blocks);
    ("lint: locks and returns", `Quick, test_lint_locks_and_returns);
    ("lint: daemon threads exempt", `Quick, test_lint_daemon_threads_exempt);
    ("lint: commit-missing on Io-level logs", `Quick, test_lint_commit_missing);
    ("lint: real instrumentation lints clean", `Quick, test_lint_real_logs_clean);
    ("lockgraph: ABBA cycle with witnesses", `Quick, test_lockgraph_reports_abba);
    ("lockgraph: gate-lock suppression", `Quick, test_lockgraph_gate_suppression);
    ("lockgraph: single-thread suppression", `Quick, test_lockgraph_single_thread_suppression);
    ("lockgraph: reentrancy and level tolerance", `Quick, test_lockgraph_reentrant_and_levels);
    ("lockgraph: reentrant acquire keeps held order", `Quick,
     test_lockgraph_reentrant_keeps_held_order);
    QCheck_alcotest.to_alcotest prop_lockgraph_single_threaded_clean;
    QCheck_alcotest.to_alcotest prop_lockgraph_disjoint_threads_clean;
    QCheck_alcotest.to_alcotest prop_lockgraph_stable_under_reorder;
    ("pass: level-aware selection", `Quick, test_pass_for_level);
    ("pass: lockgraph diagnostics", `Quick, test_pass_lockgraph_diags);
  ]
