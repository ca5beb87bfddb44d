(* The five checking paths a user has, each driven one session at a time:

   - offline: `vyrd_check check`, Checker.check_indexed over each
     structure's part of the log;
   - farm: `vyrd_check pipeline`, Farm.start + feed_batch + finish;
   - vyrdd / vyrdc: the session streamed to a separate daemon over a Unix
     socket with Client.connect, send and finish;
   - live: the program itself (Harness.run_into) with Client.attach
     streaming its log to vyrdd while it runs — paper Table 3's
     "+logging and online VYRD" row.

   Every call into a layer sits in a span under the session's root span. *)

open Vyrd
module Farm = Vyrd_pipeline.Farm
module Pass = Vyrd_analysis.Pass
module Client = Vyrd_net.Client
module Wire = Vyrd_net.Wire

type verdict = { tag : string; index : int option }

type result = {
  verdict : (verdict, string) Stdlib.result;  (** [Error]: no usable verdict *)
  events : int;
  lag : float;  (** Client.finish call to verdict; [0.] off the wire *)
  farm : Farm.result option;
}

let verdict_of_report report index = { tag = Report.tag report; index }

let pp_verdict ppf v =
  match v.index with
  | None -> Fmt.string ppf v.tag
  | Some i -> Fmt.pf ppf "%s@%d" v.tag i

type ctx = { w : Workload.t; spans : Spans.t }

(* [f root] runs the session under its root span. *)
let session ctx ~path (s : Workload.session) f =
  let verdict, events, lag, farm =
    Spans.with_span ctx.spans ~session:s.id (path ^ ".session") f
  in
  { verdict; events; lag; farm }

let offline ctx (s : Workload.session) =
  session ctx ~path:"offline" s (fun root ->
      let report, index =
        Spans.with_span ctx.spans ~parent:root ~session:s.id
          "checker.check_indexed" (fun _ -> Workload.check_indexed s.parts)
      in
      (Ok (verdict_of_report report index), Array.length s.events, 0., None))

let farm ctx (s : Workload.session) =
  session ctx ~path:"farm" s (fun root ->
      let span name f = Spans.with_span ctx.spans ~parent:root ~session:s.id name f in
      let passes = Workload.passes ctx.w in
      let shards = Workload.shards ctx.w in
      let f =
        span "farm.start" (fun _ -> Farm.start ~passes ~level:ctx.w.level shards)
      in
      span "farm.feed_batch" (fun _ -> Farm.feed_batch f s.events);
      let r = span "farm.finish" (fun _ -> Farm.finish f) in
      ( Ok (verdict_of_report r.Farm.merged (Farm.min_fail_index r)),
        r.Farm.fed,
        0.,
        Some r ))

let outcome_of = function
  | Client.Checked { report; fail_index } -> Ok (verdict_of_report report fail_index)
  | Client.Spilled { events; _ } -> Error (Printf.sprintf "spilled %d events" events)

(* [stream] sends the session's events on an open client. *)
let over_wire ctx ~path addr (s : Workload.session) ~stream =
  session ctx ~path s (fun root ->
      let span name f = Spans.with_span ctx.spans ~parent:root ~session:s.id name f in
      match
        let c =
          span "client.connect" (fun _ -> Client.connect ~level:ctx.w.level addr)
        in
        let events = stream ~span c in
        let t0 = Unix.gettimeofday () in
        let outcome = span "client.finish" (fun _ -> Client.finish c) in
        (outcome_of outcome, events, Unix.gettimeofday () -. t0)
      with
      | verdict, events, lag -> (verdict, events, lag, None)
      | exception Client.Server_error msg -> (Error ("server error: " ^ msg), 0, 0., None)
      | exception Unix.Unix_error (e, fn, _) ->
        (Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)), 0, 0., None)
      | exception Wire.Closed -> (Error "connection closed", 0, 0., None))

let remote ctx ~path addr (s : Workload.session) =
  over_wire ctx ~path addr s ~stream:(fun ~span c ->
      span "client.send" (fun _ -> Array.iter (Client.send c) s.events);
      Array.length s.events)

let live ctx addr (s : Workload.session) =
  over_wire ctx ~path:"live" addr s ~stream:(fun ~span c ->
      let log =
        span "harness.run_into" (fun _ ->
            Workload.run ?buggy:s.buggy ~listen:(Client.attach c) ctx.w s.seed)
      in
      Log.length log)

(* Analysis and monitor error counts of a farm result: the numbers vyrdd
   exports as analysis.errors and net.monitor_violations. *)
let analysis_errors (r : Farm.result) =
  List.fold_left (fun n (p : Pass.summary) -> n + p.errors) 0 r.Farm.analysis

let monitor_errors (r : Farm.result) =
  List.fold_left
    (fun n (p : Pass.summary) -> if p.pass = "monitor" then n + p.errors else n)
    0 r.Farm.analysis
