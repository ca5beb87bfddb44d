(* The daemons a run starts: vyrdd (`vyrd_check serve`), and vyrdc
   (`vyrd_check cluster`) with one attached vyrdd worker.  Each run owns a
   private directory for their sockets, spools, metrics and output; every
   pid is appended to [dir/pids] as it is spawned so the launcher can make
   sure none outlives the run. *)

module Client = Vyrd_net.Client
module Wire = Vyrd_net.Wire

type daemon = {
  name : string;
  pid : int;
  sock : string;
  addr : Wire.addr;
  metrics_json : string;
}

type t = { vyrdd : daemon; worker : daemon; vyrdc : daemon }

let spawn ~exe ~dir name args =
  let sock = Filename.concat dir (name ^ ".sock") in
  let metrics_json = Filename.concat dir (name ^ ".json") in
  let out =
    Unix.openfile
      (Filename.concat dir (name ^ ".out"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let argv =
    Array.of_list (exe :: (args @ [ "-l"; sock; "--metrics-json"; metrics_json ]))
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process exe argv Unix.stdin out out)
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat dir "pids")
  in
  Printf.fprintf oc "%d\n" pid;
  close_out oc;
  { name; pid; sock; addr = Wire.Unix_socket sock; metrics_json }

(* A daemon is ready once it answers an empty session with a verdict. *)
let await d =
  let c = Client.connect ~retries:60 ~backoff:0.02 ~max_backoff:0.2 d.addr in
  ignore (Client.finish c)

(* vyrdd and the cluster's worker check alike: the workload's subjects,
   plus its analysis passes and monitor packs. *)
let serve_args ~dir (w : Workload.t) =
  [ "serve"; "--subjects"; Workload.subject_names w; "--spill-dir"; dir ]
  @ (if w.analyze then [ "--analyze" ] else [])
  @ List.concat_map (fun m -> [ "--monitor"; m ]) (Workload.monitor_specs w)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* SIGINT, then wait up to [grace] seconds for the graceful drain; a
   daemon still alive after that is killed and reported. *)
let stop ?(grace = 20.) d =
  (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    if not (alive d.pid) then true
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      false
    end
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

let start ~exe ~dir (w : Workload.t) =
  let started = ref [] in
  let spawn name args =
    let d = spawn ~exe ~dir name args in
    started := d :: !started;
    d
  in
  try
    let vyrdd = spawn "vyrdd" (serve_args ~dir w) in
    let worker = spawn "worker" (serve_args ~dir w) in
    await worker;
    let spool = Filename.concat dir "spool" in
    let vyrdc =
      spawn "vyrdc"
        [
          "cluster"; "--subjects"; Workload.subject_names w; "--workers"; "0";
          "--worker"; "w1=" ^ worker.sock; "--spool-dir"; spool;
        ]
    in
    await vyrdd;
    await vyrdc;
    { vyrdd; worker; vyrdc }
  with e ->
    List.iter (fun d -> ignore (stop ~grace:2. d)) !started;
    raise e

(* Stop order: the coordinator first (it holds sessions on the worker).
   [true] when every daemon drained and exited on SIGINT. *)
let stop_all t = List.for_all Fun.id (List.map stop [ t.vyrdc; t.worker; t.vyrdd ])

(* /proc readings, Linux only. *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* /proc files report length 0, so read them line by line. *)
let read_file path = String.concat "\n" (read_lines path)

(* utime + stime in clock ticks (fields 14 and 15 of /proc/<pid>/stat,
   counted after the parenthesised command name). *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s after (String.length s - after)))
  in
  int_of_string f.(11) + int_of_string f.(12)

let clock_ticks_per_s = 100.

(* VmHWM, the peak resident set, in MiB. *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (Printf.sprintf "/proc/%d/status" pid))
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
  in
  float_of_int kb /. 1024.

(* An integer counter from a daemon's --metrics-json file. *)
let metric_counter d name =
  let s = read_file d.metrics_json in
  let key = Printf.sprintf "\"%s\":" name in
  let rec find from =
    match String.index_from_opt s from '"' with
    | None -> 0
    | Some i ->
      if i + String.length key <= String.length s
         && String.sub s i (String.length key) = key
      then
        let j = i + String.length key in
        Scanf.sscanf (String.sub s j (min 24 (String.length s - j))) "%d" Fun.id
      else find (i + 1)
  in
  find 0
