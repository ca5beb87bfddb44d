(* Per-layer prices for the traced run: each layer's public calls timed
   directly over the workload's sessions.  Every measurement cycles through
   the sessions until its time budget is spent and reports the layer's own
   rate. *)

open Vyrd
module Bincodec = Vyrd_pipeline.Bincodec
module Segment = Vyrd_pipeline.Segment
module Farm = Vyrd_pipeline.Farm
module Pass = Vyrd_analysis.Pass
module Monitor = Vyrd_monitor.Monitor
module Wire = Vyrd_net.Wire

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Run [f] on sessions in turn, round-robin, until [budget] seconds are
   spent (at least one session); [f] returns the events it handled. *)
let drive ~budget sessions f =
  let sessions = Array.of_list sessions in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let rec go i events =
    let events = events + f sessions.(i mod Array.length sessions) in
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= budget then (events, dt) else go (i + 1) events
  in
  go 0 0

let evps (events, secs) = float_of_int events /. secs

(* Slices of [n] consecutive events, as the wire and the farm router cut
   them. *)
let slices n (events : Event.t array) =
  let len = Array.length events in
  List.init ((len + n - 1) / n) (fun i ->
      Array.sub events (i * n) (min n (len - (i * n))))

let batch_events = 256

let harness ~budget (w : Workload.t) sessions =
  let gen =
    drive ~budget sessions (fun (s : Workload.session) ->
        Log.length (Workload.run ?buggy:s.buggy w s.seed))
  in
  [ metric "harness.gen_evps" "ev/s" (evps gen) ]

let bincodec ~budget sessions =
  let b = Buffer.create (1 lsl 20) in
  let bytes = ref 0 and encoded = ref 0 in
  let enc =
    drive ~budget sessions (fun (s : Workload.session) ->
        Buffer.clear b;
        Array.iter (Bincodec.put_event b) s.events;
        bytes := !bytes + Buffer.length b;
        encoded := !encoded + Array.length s.events;
        Array.length s.events)
  in
  let blobs =
    List.map
      (fun (s : Workload.session) ->
        Buffer.clear b;
        Array.iter (Bincodec.put_event b) s.events;
        Buffer.contents b)
      sessions
  in
  let dec =
    drive ~budget blobs (fun blob -> Bincodec.iter_events blob ignore)
  in
  [
    metric "bincodec.encode_evps" "ev/s" (evps enc);
    metric "bincodec.decode_evps" "ev/s" (evps dec);
    metric "bincodec.bytes_per_event" "B"
      (float_of_int !bytes /. float_of_int !encoded);
  ]

let wire ~budget sessions =
  let enc =
    drive ~budget sessions (fun (s : Workload.session) ->
        List.iter
          (fun b -> ignore (Wire.encode_client (Wire.Batch b)))
          (slices batch_events s.events);
        Array.length s.events)
  in
  let frames =
    List.map
      (fun (s : Workload.session) ->
        ( Array.length s.events,
          List.map
            (fun b -> Wire.encode_client (Wire.Batch b))
            (slices batch_events s.events) ))
      sessions
  in
  let dec =
    drive ~budget frames (fun (n, payloads) ->
        List.iter (fun p -> ignore (Wire.decode_client p)) payloads;
        n)
  in
  [
    metric "wire.batch_encode_evps" "ev/s" (evps enc);
    metric "wire.batch_decode_evps" "ev/s" (evps dec);
  ]

(* One producer pushing 256-event slices, one consumer domain popping. *)
let ring ~budget sessions =
  let r = Ring.create ~capacity:4096 () in
  let consumer =
    Domain.spawn (fun () ->
        let dest = Array.make batch_events None in
        let rec go n =
          match Ring.pop_batch r dest with 0 -> n | k -> go (n + k)
        in
        go 0)
  in
  let t0 = Unix.gettimeofday () in
  let pushed, _ =
    drive ~budget sessions (fun (s : Workload.session) ->
        List.iter (fun b -> Ring.push_batch r b) (slices batch_events s.events);
        Array.length s.events)
  in
  Ring.close r;
  let popped = Domain.join consumer in
  let secs = Unix.gettimeofday () -. t0 in
  assert (popped = pushed);
  [ metric "ring.transfer_evps" "ev/s" (evps (pushed, secs)) ]

let farm_empty ~budget (w : Workload.t) =
  let times = ref [] in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < budget || !times = [] do
    let t = Unix.gettimeofday () in
    let f = Farm.start ~passes:(Workload.passes w) ~level:w.level (Workload.shards w) in
    ignore (Farm.finish f);
    times := (Unix.gettimeofday () -. t) :: !times
  done;
  [ metric "farm.empty_session_ms" "ms" (1000. *. Stats.median !times) ]

(* Both refinement modes over every structure's part of a session. *)
let checker ~budget sessions =
  let check f (s : Workload.session) =
    List.iter f s.parts;
    Array.length s.events
  in
  let io =
    drive ~budget sessions
      (check (fun (p : Workload.part) ->
           ignore (Checker.check ~mode:`Io p.p_log p.p_subject.spec)))
  in
  let commits = ref 0 and projections = ref 0 and checked = ref 0 in
  let v =
    drive ~budget sessions (fun s ->
        incr checked;
        check
          (fun (p : Workload.part) ->
            let c = Checker.create ~mode:`View ~view:p.p_subject.view p.p_subject.spec in
            Log.iter (fun ev -> ignore (Checker.feed c ev)) p.p_log;
            commits := !commits + (Checker.report c).stats.commits_resolved;
            projections := !projections + Checker.view_projections c)
          s)
  in
  [
    metric "checker.io_evps" "ev/s" (evps io);
    metric "checker.view_evps" "ev/s" (evps v);
    metric "checker.view_us_per_commit" "us"
      (1e6 *. snd v /. float_of_int (max 1 !commits));
    metric "checker.view_projections" "count"
      (float_of_int !projections /. float_of_int !checked);
  ]

(* A pass or monitor fed a whole session, then finished. *)
let feed_finish ~budget sessions make =
  drive ~budget sessions (fun (s : Workload.session) ->
      let feed, finish = make () in
      Array.iter feed s.events;
      finish ();
      Array.length s.events)

let analysis ~budget sessions =
  let pass name p =
    metric ("analysis." ^ name ^ "_evps") "ev/s"
      (evps
         (feed_finish ~budget sessions (fun () ->
              let (p : Pass.t) = p () in
              (p.feed, fun () -> ignore (p.finish ())))))
  in
  let monitor name m =
    metric ("monitor." ^ name ^ "_evps") "ev/s"
      (evps
         (feed_finish ~budget sessions (fun () ->
              let m = m () in
              (Monitor.feed m, fun () -> ignore (Monitor.finish m)))))
  in
  [
    pass "racedetect" Pass.racedetect;
    pass "lint" Pass.lint;
    pass "lockgraph" Pass.lockgraph;
    monitor "lock_reversal" Monitor.lock_reversal;
    monitor "resource_leak" Monitor.resource_leak;
  ]

let segment ~budget ~dir (w : Workload.t) sessions =
  let path = Filename.concat dir "layer.seg" in
  let app =
    drive ~budget sessions (fun (s : Workload.session) ->
        let wr = Segment.create_writer ~level:w.level path in
        Array.iter (Segment.append wr) s.events;
        Segment.close wr;
        List.iter Sys.remove (Segment.writer_files wr);
        Array.length s.events)
  in
  [ metric "segment.append_evps" "ev/s" (evps app) ]

(* Every layer within [seconds]: the timed loops below (15 of them) share
   it equally. *)
let all ~seconds ~dir w sessions =
  let budget = seconds /. 15. in
  List.concat
    [
      harness ~budget w sessions;
      bincodec ~budget sessions;
      wire ~budget sessions;
      ring ~budget sessions;
      farm_empty ~budget w;
      checker ~budget sessions;
      analysis ~budget sessions;
      segment ~budget ~dir w sessions;
    ]
