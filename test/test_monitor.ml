(* Temporal-property monitors: differential qcheck of the incremental
   progression engine against the reference whole-trace evaluator,
   agreement of the lock-reversal pack with the static lock-order graph
   (single-pair traces, and many-lock traces against a prefix-by-prefix
   Lockgraph oracle), the leak pack against a depth oracle,
   the built-in packs' unit behavior, the spec parser, Explore
   composition, histogram-quantile properties and the negative-observe
   clamp counter, and the vyrdd SIGUSR1 regression (metrics dumps must
   not run inside the signal handler). *)

open Vyrd
module Monitor = Vyrd_monitor.Monitor
module Lockgraph = Vyrd_analysis.Lockgraph
module Metrics = Vyrd_pipeline.Metrics
module Explore = Vyrd_sched.Explore
module Sched = Vyrd_sched.Sched
module Harness = Vyrd_harness.Harness
module Subjects = Vyrd_harness.Subjects
module Wire = Vyrd_net.Wire
module Client = Vyrd_net.Client

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* --- random formulas and traces ------------------------------------------ *)

(* Atoms are drawn from a fixed table so equal names imply equal
   predicates, as the interface requires. *)
let atom_table =
  [
    ("acquire(a)",
     function Event.Acquire { lock; _ } -> lock = "a" | _ -> false);
    ("release(a)",
     function Event.Release { lock; _ } -> lock = "a" | _ -> false);
    ("call(m)", function Event.Call { mid; _ } -> mid = "m" | _ -> false);
    ("commit", function Event.Commit _ -> true | _ -> false);
    ("any", fun _ -> true);
  ]

let gen_formula =
  let open QCheck.Gen in
  let atom_g =
    oneofl atom_table >|= fun (n, p) -> Monitor.atom n p
  in
  sized_size (int_bound 8)
    (fix (fun self n ->
         if n <= 0 then
           frequency
             [ (3, atom_g); (1, return Monitor.tt); (1, return Monitor.ff) ]
         else
           frequency
             [
               (1, atom_g);
               (2, self (n - 1) >|= Monitor.not_);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.and_ a b);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.or_ a b);
               (1, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.implies a b);
               (2, self (n - 1) >|= Monitor.next);
               (2, pair (self (n / 2)) (self (n / 2)) >|= fun (a, b) ->
                   Monitor.until a b);
               (2, self (n - 1) >|= Monitor.eventually);
               (2, self (n - 1) >|= Monitor.always);
               (1, pair (int_bound 4) (self (n - 1)) >|= fun (k, g) ->
                   Monitor.within k g);
             ]))

let gen_event =
  QCheck.Gen.oneofl
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
      Event.Call { tid = 1; mid = "m"; args = [] };
      Event.Commit { tid = 2 };
      Event.Call { tid = 2; mid = "n"; args = [] };
    ]

let gen_trace = QCheck.Gen.(list_size (int_bound 12) gen_event)

let formula_trace =
  QCheck.make
    ~print:(fun (f, evs) ->
      Fmt.str "%a over [%a]" Monitor.pp_f f
        Fmt.(list ~sep:semi Event.pp)
        evs)
    QCheck.Gen.(pair gen_formula gen_trace)

(* The core differential property: feeding the whole trace through the
   progression engine and resolving at stream end agrees with the classic
   recursive LTLf evaluator. *)
let prop_incremental_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"incremental verdict = whole-trace reference eval" formula_trace
    (fun (f, evs) ->
      let trace = Array.of_list evs in
      let m = Monitor.of_formula ~name:"p" f in
      Array.iter (Monitor.feed m) trace;
      let expected = Monitor.eval f trace in
      match Monitor.finish m with
      | Monitor.Sat -> expected
      | Monitor.Viol _ -> not expected
      | Monitor.Pending -> false)

(* Early verdicts are sticky: once the stream makes the formula
   unavoidable (either way), extensions cannot flip it. *)
let prop_verdict_sticky =
  QCheck.Test.make ~count:1000 ~name:"mid-stream verdicts are final"
    formula_trace (fun (f, evs) ->
      let m = Monitor.of_formula ~name:"p" f in
      let first = ref None in
      List.iter
        (fun ev ->
          Monitor.feed m ev;
          if !first = None then
            match Monitor.verdict m with
            | Monitor.Pending -> ()
            | v -> first := Some v)
        evs;
      let final = Monitor.finish m in
      match (!first, final) with
      | None, _ -> true
      | Some (Monitor.Viol _), Monitor.Viol _ -> true
      | Some Monitor.Sat, Monitor.Sat -> true
      | Some _, _ -> false)

let prop_witness_in_range =
  QCheck.Test.make ~count:1000 ~name:"violation witness index is in range"
    formula_trace (fun (f, evs) ->
      let m = Monitor.of_formula ~name:"p" f in
      List.iter (Monitor.feed m) evs;
      match Monitor.finish m with
      | Monitor.Viol w -> w.Monitor.at >= 0 && w.Monitor.at <= List.length evs
      | Monitor.Sat | Monitor.Pending -> true)

(* --- lock-reversal pack vs the static lock-order graph ------------------- *)

(* Single-pair traces: every thread performs well-nested sessions over the
   pair {a,b}, optionally wrapped in a shared gate lock held outermost.
   On this family the only possible cycle is the 2-cycle a<->b, which both
   analyses judge with the same distinct-thread and gate-lock
   suppressions, so their verdicts must coincide exactly. *)
let gen_session =
  QCheck.Gen.(
    triple (int_range 1 3) bool bool >|= fun (tid, gated, a_first) ->
    let x = if a_first then "a" else "b" in
    let y = if a_first then "b" else "a" in
    (if gated then [ Event.Acquire { tid; lock = "g" } ] else [])
    @ [
        Event.Acquire { tid; lock = x };
        Event.Acquire { tid; lock = y };
        Event.Release { tid; lock = y };
        Event.Release { tid; lock = x };
      ]
    @ if gated then [ Event.Release { tid; lock = "g" } ] else [])

let gen_pair_trace =
  QCheck.Gen.(list_size (int_bound 8) gen_session >|= List.concat)

let prop_lock_reversal_matches_lockgraph =
  QCheck.Test.make ~count:500
    ~name:"lock-reversal monitor = lockgraph on single-pair traces"
    (QCheck.make
       ~print:(fun evs -> Fmt.str "[%a]" Fmt.(list ~sep:semi Event.pp) evs)
       gen_pair_trace)
    (fun evs ->
      let m = Monitor.lock_reversal () in
      List.iter (Monitor.feed m) evs;
      let monitor_convicts =
        match Monitor.finish m with
        | Monitor.Viol _ -> true
        | Monitor.Sat | Monitor.Pending -> false
      in
      let graph_convicts =
        not (Lockgraph.ok (Lockgraph.analyze (Log.of_events evs)))
      in
      monitor_convicts = graph_convicts)

(* Many-lock traces: 2-4 threads, each running sessions of nested acquires
   (depth <= 5) over up to six locks, with reentrant re-acquires, releases
   of any held lock (not only the innermost), stray releases of locks the
   thread does not hold, and an optional gate lock "g" held outermost; the
   threads' programs are interleaved by a random schedule.  A trace may
   leave its last sessions' locks held. *)
let gen_many_lock_trace =
  let open QCheck.Gen in
  let session nlocks =
    pair bool (list_size (int_range 1 10) (pair (int_bound 8) (int_bound (nlocks - 1))))
  in
  let program ~leave_open tid sessions =
    let lock k = Printf.sprintf "l%d" k in
    let evs = ref [] in
    let emit ev = evs := ev :: !evs in
    let last = List.length sessions - 1 in
    List.iteri
      (fun i (gated, steps) ->
        let held = ref [] in
        if gated then emit (Event.Acquire { tid; lock = "g" });
        List.iter
          (fun (op, k) ->
            if op <= 4 then begin
              if List.length !held < 5 then begin
                emit (Event.Acquire { tid; lock = lock k });
                held := lock k :: !held
              end
            end
            else if op <= 7 then begin
              match !held with
              | [] -> ()
              | hs ->
                let l = List.nth hs (k mod List.length hs) in
                emit (Event.Release { tid; lock = l });
                let rec drop = function
                  | [] -> []
                  | x :: r -> if x = l then r else x :: drop r
                in
                held := drop hs
            end
            else if not (List.mem (lock k) !held) then
              emit (Event.Release { tid; lock = lock k }))
          steps;
        if not (leave_open && i = last) then begin
          List.iter (fun l -> emit (Event.Release { tid; lock = l })) !held;
          if gated then emit (Event.Release { tid; lock = "g" })
        end)
      sessions;
    List.rev !evs
  in
  int_range 2 4 >>= fun nthreads ->
  int_range 2 6 >>= fun nlocks ->
  bool >>= fun leave_open ->
  list_repeat nthreads (list_size (int_range 1 4) (session nlocks))
  >>= fun programs ->
  list_size (int_bound 300) (int_bound 1000) >|= fun schedule ->
  let queues =
    Array.of_list (List.mapi (fun i p -> program ~leave_open (i + 1) p) programs)
  in
  let out = ref [] in
  let take i =
    match queues.(i) with
    | ev :: rest ->
      out := ev :: !out;
      queues.(i) <- rest
    | [] -> ()
  in
  List.iter (fun c -> take (c mod nthreads)) schedule;
  Array.iteri (fun i _ -> while queues.(i) <> [] do take i done) queues;
  List.rev !out

let many_lock_trace =
  QCheck.make
    ~print:(fun evs -> Fmt.str "[%a]" Fmt.(list ~sep:semi Event.pp) evs)
    gen_many_lock_trace

let two_cycles (r : Lockgraph.result) =
  List.filter_map
    (fun (c : Lockgraph.cycle) ->
      match c.Lockgraph.locks with [ a; b ] -> Some (a, b) | _ -> None)
    r.Lockgraph.cycles
  |> List.sort compare

(* The pack convicts exactly the two-lock cycles Lockgraph reports, each at
   the acquire ending the shortest prefix whose Lockgraph analysis reports
   it.  The oracle re-analyzes every prefix from scratch, so it goes through
   Lockgraph's own cycle enumeration and witness selection, not through the
   incremental acceptance hook the pack is built on. *)
let prop_lock_reversal_oracle =
  QCheck.Test.make ~count:300
    ~name:"lock-reversal monitor = lockgraph 2-cycles at the first prefix"
    many_lock_trace (fun evs ->
      let m = Monitor.lock_reversal () in
      List.iter (Monitor.feed m) evs;
      ignore (Monitor.finish m);
      let got =
        List.map
          (fun (w : Monitor.witness) ->
            ( Scanf.sscanf w.Monitor.failed "!reversal(%[^,],%[^)])" (fun a b ->
                  (a, b)),
              w.Monitor.at ))
          (Monitor.violations m)
        |> List.sort compare
      in
      let trace = Array.of_list evs in
      let first = Hashtbl.create 8 in
      Array.iteri
        (fun i ev ->
          match ev with
          | Event.Acquire _ ->
            let prefix = Array.to_list (Array.sub trace 0 (i + 1)) in
            List.iter
              (fun p -> if not (Hashtbl.mem first p) then Hashtbl.add first p i)
              (two_cycles (Lockgraph.analyze (Log.of_events prefix)))
          | _ -> ())
        trace;
      let expected =
        Hashtbl.fold (fun p at acc -> (p, at) :: acc) first []
        |> List.sort compare
      in
      got = expected
      && List.map fst got = two_cycles (Lockgraph.analyze (Log.of_events evs)))

(* The leak pack convicts iff some lock's depth is positive at the end (any
   thread's release lowers it; releases at depth 0 are ignored), once per
   such lock, anchored at the acquire that took it from depth 0 last. *)
let prop_resource_leak_oracle =
  QCheck.Test.make ~count:300
    ~name:"resource-leak convicts the locks held at the end"
    many_lock_trace (fun evs ->
      let depth = Hashtbl.create 8 and outer = Hashtbl.create 8 in
      let d l = Option.value ~default:0 (Hashtbl.find_opt depth l) in
      List.iteri
        (fun i ev ->
          match ev with
          | Event.Acquire { tid; lock } ->
            if d lock = 0 then Hashtbl.replace outer lock (i, tid);
            Hashtbl.replace depth lock (d lock + 1)
          | Event.Release { lock; _ } ->
            if d lock > 0 then Hashtbl.replace depth lock (d lock - 1)
          | _ -> ())
        evs;
      let expected =
        Hashtbl.fold
          (fun l n acc -> if n > 0 then Hashtbl.find outer l :: acc else acc)
          depth []
        |> List.sort compare
      in
      let m = Monitor.resource_leak () in
      List.iter (Monitor.feed m) evs;
      let verdict_ok =
        match Monitor.finish m with
        | Monitor.Viol _ -> expected <> []
        | Monitor.Sat -> expected = []
        | Monitor.Pending -> false
      in
      let got =
        List.map
          (fun (w : Monitor.witness) ->
            (w.Monitor.at, Option.value ~default:(-1) w.Monitor.tid))
          (Monitor.violations m)
        |> List.sort compare
      in
      verdict_ok && got = expected)

(* --- built-in pack unit behavior ----------------------------------------- *)

let reversal_trace =
  [
    Event.Acquire { tid = 1; lock = "a" };
    Event.Acquire { tid = 1; lock = "b" };
    Event.Release { tid = 1; lock = "b" };
    Event.Release { tid = 1; lock = "a" };
    Event.Acquire { tid = 2; lock = "b" };
    Event.Acquire { tid = 2; lock = "a" };
    (* <- convicted here, index 5 *)
    Event.Release { tid = 2; lock = "a" };
    Event.Release { tid = 2; lock = "b" };
  ]

let test_lock_reversal_convicts () =
  let m = Monitor.lock_reversal () in
  List.iteri
    (fun i ev ->
      Monitor.feed m ev;
      if i < 5 then
        match Monitor.verdict m with
        | Monitor.Viol _ -> Alcotest.fail "convicted before the reversal"
        | _ -> ())
    reversal_trace;
  match Monitor.finish m with
  | Monitor.Viol w ->
    Alcotest.(check int) "witness at the reversing acquire" 5 w.Monitor.at;
    Alcotest.(check (option int)) "witness thread" (Some 2) w.Monitor.tid
  | Monitor.Sat | Monitor.Pending ->
    Alcotest.fail "reversal not convicted"

(* One acquire can complete two reversals: T2's acquire of z at index 8
   reverses both x<z and y<z, so both pairs are convicted there, each with
   its own witness. *)
let test_lock_reversal_two_pairs_one_acquire () =
  let acq tid lock = Event.Acquire { tid; lock } in
  let rel tid lock = Event.Release { tid; lock } in
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    [
      acq 1 "z"; acq 1 "x"; rel 1 "x"; acq 1 "y"; rel 1 "y"; rel 1 "z";
      acq 2 "x"; acq 2 "y"; acq 2 "z"; rel 2 "z"; rel 2 "y"; rel 2 "x";
    ];
  ignore (Monitor.finish m);
  let vs = Monitor.violations m in
  Alcotest.(check int) "two violations" 2 (List.length vs);
  List.iter
    (fun (w : Monitor.witness) ->
      Alcotest.(check int) "at the acquire of z" 8 w.Monitor.at;
      Alcotest.(check (option int)) "by T2" (Some 2) w.Monitor.tid)
    vs;
  Alcotest.(check (list (pair string (option string))))
    "one witness per pair"
    [
      ( "!reversal(x,z)",
        Some "T1 acquired x @1 holding {z}; T2 acquired z @8 holding {y, x}" );
      ( "!reversal(y,z)",
        Some "T1 acquired y @3 holding {z}; T2 acquired z @8 holding {y, x}" );
    ]
    (List.sort compare
       (List.map
          (fun (w : Monitor.witness) -> (w.Monitor.failed, w.Monitor.detail))
          vs))

(* [Monitor.pass] counts instance progressions: the leak pack moves a
   lock's instance only at its outermost acquire and final release, the
   reversal pack only at a conviction. *)
let test_progressions_counted () =
  let metrics = Metrics.create () in
  let p = Monitor.pass ~metrics (Monitor.builtins ()) in
  List.iter p.Vyrd_analysis.Pass.feed
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
      Event.Commit { tid = 1 };
    ];
  ignore (p.Vyrd_analysis.Pass.finish ());
  Alcotest.(check int) "four leak progressions, no reversal ones" 4
    (Metrics.value (Metrics.counter metrics "analysis.monitor_progressions"))

let test_lock_reversal_gate_suppressed () =
  let gate tid body =
    (Event.Acquire { tid; lock = "g" } :: body)
    @ [ Event.Release { tid; lock = "g" } ]
  in
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    (gate 1
       [
         Event.Acquire { tid = 1; lock = "a" };
         Event.Acquire { tid = 1; lock = "b" };
         Event.Release { tid = 1; lock = "b" };
         Event.Release { tid = 1; lock = "a" };
       ]
    @ gate 2
        [
          Event.Acquire { tid = 2; lock = "b" };
          Event.Acquire { tid = 2; lock = "a" };
          Event.Release { tid = 2; lock = "a" };
          Event.Release { tid = 2; lock = "b" };
        ]);
  match Monitor.finish m with
  | Monitor.Viol _ -> Alcotest.fail "gated reversal must be suppressed"
  | Monitor.Sat | Monitor.Pending -> ()

let test_lock_reversal_single_thread_suppressed () =
  let m = Monitor.lock_reversal () in
  List.iter (Monitor.feed m)
    (List.map
       (function
         | Event.Acquire a -> Event.Acquire { a with tid = 1 }
         | Event.Release r -> Event.Release { r with tid = 1 }
         | ev -> ev)
       reversal_trace);
  match Monitor.finish m with
  | Monitor.Viol _ ->
    Alcotest.fail "one thread cannot deadlock with itself (reentrant)"
  | Monitor.Sat | Monitor.Pending -> ()

let test_resource_leak_convicts_at_end () =
  let m = Monitor.resource_leak () in
  List.iter (Monitor.feed m)
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "b" };
      Event.Release { tid = 1; lock = "b" };
      (* "a" never released *)
      Event.Commit { tid = 1 };
    ];
  (match Monitor.verdict m with
  | Monitor.Viol _ -> Alcotest.fail "leak is only decidable at stream end"
  | _ -> ());
  match Monitor.finish m with
  | Monitor.Viol w ->
    Alcotest.(check int) "anchored at the unmatched acquire" 0 w.Monitor.at;
    Alcotest.(check (option int)) "holder thread" (Some 1) w.Monitor.tid;
    (match w.Monitor.detail with
    | Some d ->
      Alcotest.(check bool) "detail names the still-held lock" true
        (contains d "a")
    | None -> Alcotest.fail "leak witness carries the still-held set")
  | Monitor.Sat | Monitor.Pending -> Alcotest.fail "leak not convicted"

let test_resource_leak_reentrant_clean () =
  let m = Monitor.resource_leak () in
  List.iter (Monitor.feed m)
    [
      Event.Acquire { tid = 1; lock = "a" };
      Event.Acquire { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
      Event.Release { tid = 1; lock = "a" };
    ];
  match Monitor.finish m with
  | Monitor.Viol _ -> Alcotest.fail "balanced reentrant acquires are clean"
  | Monitor.Sat | Monitor.Pending -> ()

(* --- spec parser ---------------------------------------------------------- *)

let test_parse_ok () =
  List.iter
    (fun s ->
      match Monitor.parse s with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%S: %s" s msg))
    [
      "G (call(Insert) -> F return(Insert))";
      "always (acquire(m) -> eventually release(m))";
      "! (true U false) | commit & any";
      "X (within 3 write(top))";
      "G (read(size) -> ! X release(l))";
    ]

let test_parse_err () =
  List.iter
    (fun s ->
      match Monitor.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s)
      | Error _ -> ())
    [ ""; "G ((("; "call()"; "within x any"; "true U" ]

let test_parse_semantics () =
  (* the parsed formula means what the combinators mean *)
  let f =
    match Monitor.parse "G (call(m) -> F return(m))" with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  let call = Event.Call { tid = 1; mid = "m"; args = [] } in
  let ret = Event.Return { tid = 1; mid = "m"; value = Repr.unit } in
  Alcotest.(check bool) "answered call satisfies" true
    (Monitor.eval f [| call; ret |]);
  Alcotest.(check bool) "unanswered call violates" false
    (Monitor.eval f [| call |]);
  Alcotest.(check bool) "empty trace satisfies an always" true
    (Monitor.eval f [||])

let test_of_spec () =
  (match Monitor.of_spec "lock-reversal" with
  | Ok m ->
    Alcotest.(check string) "builtin resolves" "lock-reversal"
      (Monitor.name m)
  | Error msg -> Alcotest.fail msg);
  (match Monitor.of_spec "G commit" with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  match Monitor.of_spec "no-such-pack(" with
  | Ok _ -> Alcotest.fail "garbage spec resolved"
  | Error _ -> ()

(* --- Explore composition -------------------------------------------------- *)

(* Two threads acquiring {a,b} in opposite orders: some schedules deadlock,
   some complete — a completed trace carries both orders on distinct
   threads with no gate, so the lock-reversal monitor must convict one,
   and the returned decision script must replay to a convicting run. *)
let opposite_order_scenario () =
  let log = Log.create ~level:`Full () in
  let finished = ref 0 in
  let main (sched : Sched.t) =
    let ctx = Instrument.make sched log in
    let a = Instrument.mutex ctx ~name:"a" in
    let b = Instrument.mutex ctx ~name:"b" in
    let locked (m1 : Sched.mutex) (m2 : Sched.mutex) () =
      m1.Sched.lock ();
      m2.Sched.lock ();
      m2.Sched.unlock ();
      m1.Sched.unlock ();
      incr finished
    in
    sched.Sched.spawn (locked a b);
    sched.Sched.spawn (locked b a)
  in
  (main, fun () -> if !finished = 2 then Some log else None)

let test_first_violation () =
  let outcome =
    Monitor.first_violation ~max_schedules:2_000
      ~monitors:(fun () -> [ Monitor.lock_reversal () ])
      opposite_order_scenario
  in
  (match outcome.Monitor.violation with
  | Some (name, w) ->
    Alcotest.(check string) "the reversal monitor convicted" "lock-reversal"
      name;
    Alcotest.(check bool) "witness index in the trace" true (w.Monitor.at > 0)
  | None -> Alcotest.fail "no violating schedule found");
  match outcome.Monitor.schedule with
  | None -> Alcotest.fail "violation carries no schedule certificate"
  | Some script ->
    (* the certificate replays deterministically to a convicting trace *)
    let main, log_of = opposite_order_scenario () in
    Explore.replay script main;
    (match log_of () with
    | None -> Alcotest.fail "replayed schedule did not complete"
    | Some log ->
      let m = Monitor.lock_reversal () in
      Log.iter (Monitor.feed m) log;
      (match Monitor.finish m with
      | Monitor.Viol _ -> ()
      | Monitor.Sat | Monitor.Pending ->
        Alcotest.fail "replayed schedule is not a violation witness"))

(* --- histogram quantiles (qcheck) ---------------------------------------- *)

let observations =
  QCheck.Gen.(list_size (int_range 1 64) (int_bound 100_000))

let hist_of vs =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) vs;
  (m, h)

let prop_quantile_le_max =
  QCheck.Test.make ~count:500 ~name:"quantile <= hist_max"
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) float)
       QCheck.Gen.(pair observations (float_bound_inclusive 1.)))
    (fun (vs, q) ->
      let _, h = hist_of vs in
      Metrics.quantile h q <= Metrics.hist_max h)

let prop_quantile_monotone =
  QCheck.Test.make ~count:500 ~name:"quantile monotone in q"
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) float float)
       QCheck.Gen.(
         triple observations (float_bound_inclusive 1.)
           (float_bound_inclusive 1.)))
    (fun (vs, q1, q2) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let _, h = hist_of vs in
      Metrics.quantile h lo <= Metrics.quantile h hi)

let prop_quantile_merge_bounded =
  QCheck.Test.make ~count:500
    ~name:"merged quantile <= max of inputs' maxima"
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) (list int) float)
       QCheck.Gen.(
         triple observations observations (float_bound_inclusive 1.)))
    (fun (va, vb, q) ->
      let ma, ha = hist_of va in
      let mb, hb = hist_of vb in
      let bound = max (Metrics.hist_max ha) (Metrics.hist_max hb) in
      Metrics.merge ~into:ma mb;
      Metrics.quantile ha q <= bound)

(* --- negative-observe clamp counter -------------------------------------- *)

let test_observe_clamp_counted () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 5;
  Metrics.observe h (-3);
  Metrics.observe h (-1);
  Alcotest.(check int) "clamped observations counted" 2
    (Metrics.value (Metrics.counter m "lat.clamped"));
  Alcotest.(check int) "clamped values recorded as 0" 3 (Metrics.hist_count h);
  let json = Metrics.to_json m in
  Alcotest.(check bool) "clamp counter surfaces in JSON" true
    (contains json "lat.clamped");
  Alcotest.(check bool) "clamp counter surfaces in pp" true
    (contains (Fmt.str "%a" Metrics.pp m) "lat.clamped")

let test_observe_clamp_hidden_when_zero () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 5;
  Metrics.observe h 7;
  let json = Metrics.to_json m in
  Alcotest.(check bool) "no spurious clamp counter in JSON" false
    (contains json ".clamped");
  Alcotest.(check bool) "no spurious clamp counter in pp" false
    (contains (Fmt.str "%a" Metrics.pp m) ".clamped")

(* --- vyrdd SIGUSR1 regression --------------------------------------------- *)

(* The daemon's SIGUSR1 handler used to print the metrics registry from
   inside the handler; [Metrics.pp] takes the registry mutex, so a signal
   landing while any thread held it could deadlock the process.  The
   handler now only sets a flag and the main loop dumps.  Regression:
   storm the daemon with SIGUSR1 while it serves and while it drains, and
   require a clean exit with at least one dump in the output. *)
let test_serve_sigusr1_storm () =
  let exe =
    List.find Sys.file_exists
      [ "../bin/vyrd_check.exe"; "_build/default/bin/vyrd_check.exe" ]
  in
  let sock = Filename.temp_file "vyrd_usr1" ".sock" in
  Sys.remove sock;
  let out_path = Filename.temp_file "vyrd_usr1" ".out" in
  let out_fd = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--listen"; sock; "--subjects"; "Multiset-Vector";
        "--monitor"; "lock-reversal";
      |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid)
       with Unix.Unix_error _ -> ());
      (try Sys.remove out_path with Sys_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let log =
        Harness.run
          { Harness.default with threads = 2; ops_per_thread = 10 }
          ((Subjects.find "Multiset-Vector").Subjects.build ~bug:false)
      in
      (* the retrying connect doubles as the wait for the daemon to be up *)
      (match
         Client.submit_log ~retries:20 ~backoff:0.05 (Wire.Unix_socket sock)
           log
       with
      | Client.Checked _ -> ()
      | Client.Spilled _ -> Alcotest.fail "unloaded daemon spilled");
      (* storm while serving: every dump must come from the main loop *)
      for _ = 1 to 10 do
        Unix.kill pid Sys.sigusr1;
        Thread.delay 0.02
      done;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, _ -> Alcotest.fail "daemon died under SIGUSR1");
      Unix.kill pid Sys.sigterm;
      (* keep storming during the drain *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec await () =
        (try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ());
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon hung draining under SIGUSR1"
          else begin
            Thread.delay 0.02;
            await ()
          end
        | _, status -> status
      in
      (match await () with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
        Alcotest.fail (Printf.sprintf "daemon exited %d under SIGUSR1" n)
      | Unix.WSIGNALED s ->
        Alcotest.fail (Printf.sprintf "daemon died of signal %d" s)
      | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped instead of exiting");
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "at least one metrics dump happened" true
        (contains text "counters"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_incremental_matches_reference;
    QCheck_alcotest.to_alcotest prop_verdict_sticky;
    QCheck_alcotest.to_alcotest prop_witness_in_range;
    QCheck_alcotest.to_alcotest prop_lock_reversal_matches_lockgraph;
    QCheck_alcotest.to_alcotest prop_lock_reversal_oracle;
    QCheck_alcotest.to_alcotest prop_resource_leak_oracle;
    ("lock-reversal convicts with witness", `Quick, test_lock_reversal_convicts);
    ("two reversals convicted at one acquire", `Quick,
     test_lock_reversal_two_pairs_one_acquire);
    ("monitor pass counts progressions", `Quick, test_progressions_counted);
    ("gate lock suppresses the reversal", `Quick,
     test_lock_reversal_gate_suppressed);
    ("single thread suppresses the reversal", `Quick,
     test_lock_reversal_single_thread_suppressed);
    ("resource leak convicts at stream end", `Quick,
     test_resource_leak_convicts_at_end);
    ("balanced reentrant acquires are clean", `Quick,
     test_resource_leak_reentrant_clean);
    ("formula syntax parses", `Quick, test_parse_ok);
    ("malformed specs are rejected", `Quick, test_parse_err);
    ("parsed formulas mean the combinators", `Quick, test_parse_semantics);
    ("of_spec resolves builtins and formulas", `Quick, test_of_spec);
    ("first_violation finds a replayable schedule", `Quick,
     test_first_violation);
    QCheck_alcotest.to_alcotest prop_quantile_le_max;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_quantile_merge_bounded;
    ("negative observe counts a clamp", `Quick, test_observe_clamp_counted);
    ("clamp counter hidden when zero", `Quick,
     test_observe_clamp_hidden_when_zero);
    ("SIGUSR1 storm during serve and drain", `Quick,
     test_serve_sigusr1_storm);
  ]
