(* The session benchmark: one workload, one seed, one run.

   Set-up generates every session from the workload seed and starts the
   daemons (three times; the median is setup_s, the last set-up is kept).
   Timed rounds then drive every session through each checking path, the
   paths interleaved and rotated round by round so a slow phase of the host
   hits all of them alike.  Each session of a timed pass is followed by a
   sample of the host's speed (Calib), and every time in the end-to-end
   metrics is scaled to the nominal speed.  Every verdict is compared with
   the offline checker's at the end.  With --trace 1 half the time goes to
   rounds that alternate spans on and off (the difference is the tracing
   overhead) and half to pricing each layer on its own.

   Writes the result object to --out and a readable report to stdout. *)

module Farm = Vyrd_pipeline.Farm

type path = Offline | Farm_path | Vyrdd | Vyrdc | Live

let paths = [ Offline; Farm_path; Vyrdd; Vyrdc; Live ]

let path_name = function
  | Offline -> "offline"
  | Farm_path -> "farm"
  | Vyrdd -> "vyrdd"
  | Vyrdc -> "vyrdc"
  | Live -> "live"

let setup_reps = 3

(* One path over a list of sessions. *)
type pass = {
  path : path;
  traced : bool;
  timed : bool;  (** false for warm-ups *)
  secs : float;
  events : int;
  cpu_ticks : int;  (** of the daemon the path talks to; 0 otherwise *)
  speed : float;
      (** {!Calib.speed} over the samples after each session; [nan] for
          warm-ups and other untimed passes, which take no samples *)
  results : (Workload.session * Paths.result) list;
}

let run_pass ctx (d : Daemons.t) ~timed path sessions =
  let f, pid =
    match path with
    | Offline -> (Paths.offline ctx, None)
    | Farm_path -> (Paths.farm ctx, None)
    | Vyrdd -> (Paths.remote ctx ~path:"vyrdd" d.vyrdd.addr, Some d.vyrdd.pid)
    | Vyrdc -> (Paths.remote ctx ~path:"vyrdc" d.vyrdc.addr, Some d.vyrdc.pid)
    | Live -> (Paths.live ctx d.vyrdd.addr, None)
  in
  let ticks () = Option.fold ~none:0 ~some:Daemons.cpu_ticks pid in
  Gc.compact ();
  let m = Calib.meter ~idle:(path <> Offline) in
  let secs = ref 0. in
  let c0 = ticks () in
  let results =
    List.map
      (fun s ->
        let t0 = Unix.gettimeofday () in
        let r = f s in
        let dt = Unix.gettimeofday () -. t0 in
        secs := !secs +. dt;
        if timed then Calib.sample m ~secs:dt;
        (s, r))
      sessions
  in
  let secs = !secs and cpu_ticks = ticks () - c0 in
  let speed = if timed then Calib.speed m else Float.nan in
  let events = List.fold_left (fun n (_, r) -> n + r.Paths.events) 0 results in
  { path; traced = Spans.enabled ctx.Paths.spans; timed; secs; events; cpu_ticks;
    speed; results }

(* --------------------------------------------------------------- set-up *)

(* The set-up's seconds, raw and scaled to the nominal host speed (sampled
   before the set-up and after it). *)
let setup ~exe ~dir ctx (w : Workload.t) ~seed =
  let m = Calib.meter ~idle:false in
  Calib.sample m ~secs:0.5;
  let t0 = Unix.gettimeofday () in
  let sessions = Workload.generate w ~seed in
  let d = Daemons.start ~exe ~dir w in
  (* the first session is a clean one *)
  match List.map (fun p -> run_pass ctx d ~timed:false p [ List.hd sessions ]) paths with
  | warm ->
    let secs = Unix.gettimeofday () -. t0 in
    Calib.sample m ~secs;
    ((secs, secs *. Calib.speed m), sessions, d, warm)
  | exception e ->
    ignore (Daemons.stop_all d);
    raise e

(* --------------------------------------------------------------- checks *)

type check = {
  mutable attempted : (path * int) list;
  mutable failed : (path * int) list;
  mutable problems : string list;
}

let bump l p = (p, 1 + Option.value ~default:0 (List.assoc_opt p l)) :: List.remove_assoc p l

let problem c fmt = Printf.ksprintf (fun s -> c.problems <- s :: c.problems) fmt

(* Every verdict must equal the first offline verdict of its session; live
   sessions must also log exactly the events set-up generated. *)
let check_verdicts c passes =
  let oracle = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if p.path = Offline then
        List.iter
          (fun ((s : Workload.session), (r : Paths.result)) ->
            match r.verdict with
            | Ok v when not (Hashtbl.mem oracle s.id) -> Hashtbl.add oracle s.id v
            | _ -> ())
          p.results)
    passes;
  List.iter
    (fun p ->
      List.iter
        (fun ((s : Workload.session), (r : Paths.result)) ->
          c.attempted <- bump c.attempted p.path;
          let bad msg =
            c.failed <- bump c.failed p.path;
            problem c "%s session %d (seed %d): %s" (path_name p.path) s.id s.seed msg
          in
          match (r.verdict, Hashtbl.find_opt oracle s.id) with
          | Error msg, _ -> bad msg
          | Ok _, None -> bad "no offline verdict to compare with"
          | Ok v, Some o when v <> o ->
            bad (Fmt.str "verdict %a, offline %a" Paths.pp_verdict v Paths.pp_verdict o)
          | Ok _, Some _ when r.events <> Array.length s.events ->
            bad (Printf.sprintf "%d events, set-up generated %d" r.events
                   (Array.length s.events))
          | Ok _, Some _ -> ())
        p.results)
    passes

(* The farm's analysis and monitor error counts, summed over the sessions
   a daemon checked, must equal what the daemon exported. *)
let check_analysis c passes (d : Daemons.t) =
  let per_session = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun ((s : Workload.session), (r : Paths.result)) ->
          match r.farm with
          | Some fr ->
            Hashtbl.replace per_session s.id
              (Paths.analysis_errors fr, Paths.monitor_errors fr)
          | None -> ())
        p.results)
    passes;
  let expected on =
    List.fold_left
      (fun (a, m) p ->
        if List.mem p.path on then
          List.fold_left
            (fun (a, m) ((s : Workload.session), _) ->
              let a', m' =
                Option.value ~default:(0, 0) (Hashtbl.find_opt per_session s.id)
              in
              (a + a', m + m'))
            (a, m) p.results
        else (a, m))
      (0, 0) passes
  in
  let compare (dm : Daemons.daemon) on =
    let a, m = expected on in
    let got name = Daemons.metric_counter dm name in
    List.iter
      (fun (name, want) ->
        let have = got name in
        if have <> want then problem c "%s %s = %d, farm says %d" dm.name name have want)
      [
        ("analysis.errors", a);
        ("net.monitor_violations", m);
        ("net.sessions_failed", 0);
        ("net.sessions_spilled", 0);
      ]
  in
  compare d.vyrdd [ Vyrdd; Live ];
  compare d.worker [ Vyrdc ]

(* ------------------------------------------------------------- metrics *)

type metric = Layers.metric = { name : string; value : float; unit : string }

let metric = Layers.metric

let timed_passes ?traced path passes =
  List.filter
    (fun p -> p.timed && p.path = path && Option.fold ~none:true ~some:(( = ) p.traced) traced)
    passes

let speeds passes = List.filter_map (fun p -> if p.timed then Some p.speed else None) passes

(* Events per second, raw or [~calibrated] to the nominal host speed. *)
let evps ?(calibrated = true) p =
  float_of_int p.events /. p.secs /. if calibrated then p.speed else 1.

let per_round ?calibrated ?traced path passes =
  List.map (evps ?calibrated) (timed_passes ?traced path passes)

let lags ?(calibrated = true) ?traced passes =
  List.concat_map
    (fun p ->
      let k = if calibrated then p.speed else 1. in
      List.map (fun (_, (r : Paths.result)) -> r.lag *. k) p.results)
    (timed_passes ?traced Vyrdd passes)

let end_to_end ~setup_s ~rss passes =
  let evps_metric p =
    metric (path_name p ^ "_evps") "ev/s" (Stats.median (per_round ~traced:false p passes))
  in
  [ metric "setup_s" "s" setup_s ]
  @ List.map evps_metric paths
  @ [
      metric "verdict_lag_p50_ms" "ms" (1000. *. Stats.median (lags ~traced:false passes));
      metric "vyrdd_peak_rss_mb" "MB" rss;
    ]

let span_durations spans ~root name =
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (s : Spans.span) -> if s.name = root then Hashtbl.replace roots s.id ())
    spans;
  List.filter_map
    (fun (s : Spans.span) ->
      match s.parent with
      | Some p when s.name = name && Hashtbl.mem roots p -> Some (s.stop -. s.start)
      | _ -> None)
    spans

let per_layer ~layers ~spans passes =
  let farm_results =
    List.concat_map
      (fun p -> List.filter_map (fun (_, (r : Paths.result)) -> r.farm) p.results)
      (timed_passes Farm_path passes)
  in
  let sum f l = List.fold_left (fun n x -> n + f x) 0 l in
  let stall_ms (r : Farm.result) =
    float_of_int (sum (fun (s : Farm.shard_result) -> s.sr_stall_ns) r.shards) /. 1e6
  in
  let high_water (r : Farm.result) =
    List.fold_left (fun m (s : Farm.shard_result) -> max m s.sr_high_water) 0 r.shards
  in
  let routed =
    sum (fun (r : Farm.result) -> sum (fun (s : Farm.shard_result) -> s.sr_events) r.shards)
      farm_results
  in
  let fed = sum (fun (r : Farm.result) -> r.fed) farm_results in
  let all_lags = lags ~calibrated:false passes in
  let tail_pct = Option.value ~default:100. (Stats.tail_percentile (List.length all_lags)) in
  let cpu_us path =
    let ps = timed_passes ~traced:false path passes in
    1e6 /. Daemons.clock_ticks_per_s
    *. float_of_int (sum (fun p -> p.cpu_ticks) ps)
    /. float_of_int (sum (fun p -> p.events) ps)
  in
  let per_session p = p.secs /. float_of_int (List.length p.results) in
  let hop_ms =
    List.map2
      (fun c d -> 1000. *. (per_session c -. per_session d))
      (timed_passes ~traced:false Vyrdc passes)
      (timed_passes ~traced:false Vyrdd passes)
  in
  let self =
    List.map
      (fun (root, name, total, count) ->
        let path = String.sub root 0 (String.index root '.') in
        let label = if name = root then "session" else name in
        metric
          (Printf.sprintf "self.%s.%s_ms" path label)
          "ms"
          (1000. *. total /. float_of_int count))
      (Spans.self_times spans)
  in
  let overhead p =
    let u = Stats.median (per_round ~traced:false p passes)
    and t = Stats.median (per_round ~traced:true p passes) in
    metric (Printf.sprintf "trace.overhead.%s_pct" (path_name p)) "%" (100. *. (u -. t) /. u)
  in
  layers
  @ [
      metric "farm.finish_ms" "ms"
        (1000. *. Stats.median (span_durations spans ~root:"farm.session" "farm.finish"));
      metric "farm.stall_ms" "ms" (Stats.median (List.map stall_ms farm_results));
      metric "farm.high_water" "count"
        (float_of_int (List.fold_left (fun m r -> max m (high_water r)) 0 farm_results));
      metric "farm.routed_share" "ratio" (float_of_int routed /. float_of_int fed);
      metric "client.connect_ms" "ms"
        (1000. *. Stats.median (span_durations spans ~root:"vyrdd.session" "client.connect"));
      metric "client.finish_tail_ms" "ms" (1000. *. Stats.percentile all_lags tail_pct);
      metric "client.finish_tail_pct" "%" tail_pct;
      metric "client.finish_samples" "count" (float_of_int (List.length all_lags));
      metric "vyrdd.cpu_us_per_event" "us" (cpu_us Vyrdd);
      metric "vyrdc.cpu_us_per_event" "us" (cpu_us Vyrdc);
      metric "vyrdc.hop_ms" "ms" (Stats.median hop_ms);
      metric "host.speed" "ratio" (Stats.median (speeds passes));
    ]
  @ self
  @ List.map overhead paths

(* -------------------------------------------------------------- report *)

let first_line path = try List.hd (Daemons.read_lines path) with _ -> "?"

let nproc () = Domain.recommended_domain_count ()

let json_metrics ms =
  String.concat ","
    (List.map
       (fun m -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" m.name m.value m.unit)
       ms)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let report ~(w : Workload.t) ~seed ~sessions ~setup_times ~c passes metrics =
  let events = Workload.events sessions in
  Fmt.pr "host: nproc=%d ocaml=%s kernel=%s@." (nproc ()) Sys.ocaml_version
    (first_line "/proc/sys/kernel/osrelease");
  Fmt.pr "workload %s seed %d: %d sessions (%d with an injected bug), %d events@."
    w.name seed (List.length sessions)
    (List.length (List.filter (fun (s : Workload.session) -> s.buggy <> None) sessions))
    events;
  let fmt_times f = String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" (f t)) setup_times) in
  Fmt.pr "set-up: %s s raw, %s s calibrated@." (fmt_times fst) (fmt_times snd);
  let speeds = speeds passes in
  let q1, med, q3 = Stats.quartiles speeds in
  Fmt.pr "host speed: median %.3f of nominal over %d passes, quartiles %.3f..%.3f@." med
    (List.length speeds) q1 q3;
  List.iter
    (fun p ->
      let rounds = per_round ~traced:false p passes in
      if rounds <> [] then begin
        let q1, med, q3 = Stats.quartiles rounds in
        Fmt.pr "%-8s %d rounds: median %.0f ev/s calibrated, quartiles %.0f..%.0f; raw %.0f@."
          (path_name p) (List.length rounds) med q1 q3
          (Stats.median (per_round ~calibrated:false ~traced:false p passes))
      end)
    paths;
  let l = lags ~traced:false passes in
  if l <> [] then
    Fmt.pr "verdict lag: p50 %.2f ms calibrated, %.2f ms raw, over %d vyrdd sessions@."
      (1000. *. Stats.median l)
      (1000. *. Stats.median (lags ~calibrated:false ~traced:false passes))
      (List.length l);
  List.iter
    (fun p ->
      Fmt.pr "%-8s sessions attempted %d, failed %d@." (path_name p)
        (Option.value ~default:0 (List.assoc_opt p c.attempted))
        (Option.value ~default:0 (List.assoc_opt p c.failed)))
    paths;
  List.iter (Fmt.pr "PROBLEM: %s@.") (List.rev c.problems);
  List.iter (fun m -> Fmt.pr "  %-34s %14.4f %s@." m.name m.value m.unit) metrics

(* ---------------------------------------------------------------- main *)

let rotate k l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((i + k) mod n))

(* Rounds a run aims for; the session list bounds how short a round can be. *)
let target_rounds = 20

(* Rounds until [budget] seconds are spent: at least two, or one in a
   traced run, where each round runs every path twice, spans off and on,
   alternating which comes first.  Each round runs the paths in an order
   rotated by one per round, over the next [per_round] sessions (the
   workload's sessions in turn, so rounds stay short when sessions are
   slow).  After the first round every path repeats that session list
   often enough that its pass takes about
   [budget / (target_rounds * passes per round)] seconds, so short passes
   do not make noisy samples and each path gets an equal share of the
   host's phases.  The repeat count follows the median time of one
   repetition over the rounds so far, so one slow first pass does not set
   it for the whole run. *)
let timed_rounds ctx d ~budget ~trace sessions =
  let spans = ctx.Paths.spans in
  let group r =
    let a = Array.of_list sessions and n = ctx.Paths.w.per_round in
    List.init n (fun i -> a.(((r * n) + i) mod Array.length a))
  in
  let modes r = if not trace then [ false ] else [ r mod 2 = 1; r mod 2 = 0 ] in
  let per_pass =
    budget
    /. float_of_int (target_rounds * List.length paths * List.length (modes 0))
    /. (1. +. Calib.share)
  in
  let reps = Hashtbl.create 8 and rep_secs = Hashtbl.create 8 in
  let t0 = Unix.gettimeofday () in
  let rec rounds r acc =
    let r0 = Unix.gettimeofday () in
    let this =
      List.concat_map
        (fun traced ->
          Spans.set_enabled spans traced;
          List.map
            (fun p ->
              let k = Option.value ~default:1 (Hashtbl.find_opt reps p) in
              run_pass ctx d ~timed:true p (List.concat (List.init k (fun _ -> group r))))
            (rotate r paths))
        (modes r)
    in
    Spans.set_enabled spans false;
    List.iter
      (fun p ->
        let k = Option.value ~default:1 (Hashtbl.find_opt reps p.path) in
        Hashtbl.add rep_secs p.path (p.secs /. float_of_int k))
      this;
    List.iter
      (fun p ->
        let one = Stats.median (Hashtbl.find_all rep_secs p) in
        Hashtbl.replace reps p (max 1 (min 50 (int_of_float (Float.round (per_pass /. one))))))
      paths;
    let acc = List.rev_append this acc in
    let now = Unix.gettimeofday () in
    if r + 1 >= (if trace then 1 else 2) && now -. t0 +. (now -. r0) > budget then List.rev acc
    else rounds (r + 1) acc
  in
  rounds 0 []

let main ~exe ~dir ~out ~spans_out ~(w : Workload.t) ~seed ~seconds ~trace =
  let spans = Spans.create ~enabled:false in
  let ctx = { Paths.w; spans } in
  let c = { attempted = []; failed = []; problems = [] } in
  let stopped_ok = ref true in
  (* set-up, [setup_reps] times; the last one's daemons stay up *)
  let rec setups k acc =
    let secs, sessions, d, warm = setup ~exe ~dir ctx w ~seed in
    if k = 1 then (List.rev (secs :: acc), sessions, d, warm)
    else begin
      if not (Daemons.stop_all d) then stopped_ok := false;
      setups (k - 1) (secs :: acc)
    end
  in
  let setup_times, sessions, d, warm = setups setup_reps [] in
  let stop () = if not (Daemons.stop_all d) then stopped_ok := false in
  (* The bug sessions convict early and then cost the checkers nothing, so
     they would make throughput depend on where each bug happens to show.
     They go through every path once, untimed, for the verdict gate. *)
  let clean, buggy = List.partition (fun (s : Workload.session) -> s.buggy = None) sessions in
  let budget = if trace then seconds /. 2. else seconds in
  let passes, rss =
    match
      let gate = List.map (fun p -> run_pass ctx d ~timed:false p buggy) paths in
      gate @ timed_rounds ctx d ~budget ~trace clean
    with
    | passes -> (warm @ passes, Daemons.peak_rss_mb d.vyrdd.pid)
    | exception e ->
      stop ();
      raise e
  in
  stop ();
  let layers =
    if trace then Layers.all ~seconds:(seconds /. 2.) ~dir w clean else []
  in
  if not !stopped_ok then problem c "a daemon did not exit on SIGINT";
  check_verdicts c passes;
  if !stopped_ok then check_analysis c passes d;
  let setup_s = Stats.median (List.map snd setup_times) in
  let metrics =
    if trace then per_layer ~layers ~spans:(Spans.spans spans) passes
    else end_to_end ~setup_s ~rss passes
  in
  report ~w ~seed ~sessions ~setup_times ~c passes metrics;
  if trace then Spans.write_jsonl spans_out (Spans.spans spans);
  let count l = List.fold_left (fun n (_, k) -> n + k) 0 l in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then problem c "a metric is not a finite number";
  write_file out
    (Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
       (c.problems = [] && finite) (count c.attempted) (count c.failed)
       (json_metrics (List.filter (fun m -> Float.is_finite m.value) metrics)))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "" and dir = ref "" and out = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--vyrd-check", Arg.Set_string exe, "PATH of vyrd_check.exe");
      ("--dir", Arg.Set_string dir, "DIR private to this run");
      ("--out", Arg.Set_string out, "FILE for the result object");
      ("--spans", Arg.Set_string spans_out, "FILE for the spans (trace runs)");
    ]
    (fun a -> raise (Arg.Bad a))
    "vbench --workload NAME --seed N --seconds S --trace 0|1 --vyrd-check EXE --dir DIR --out FILE";
  match Workload.find !workload with
  | None ->
    Fmt.epr "unknown workload %S; known: %s@." !workload
      (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
    exit 2
  | Some w ->
    main ~exe:!exe ~dir:!dir ~out:!out ~spans_out:!spans_out ~w ~seed:!seed
      ~seconds:!seconds ~trace:(!trace = 1)
