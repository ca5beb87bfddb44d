(* Tests for the Boxwood Cache + Chunk Manager (paper §7.2.1–7.2.2). *)

open Vyrd
open Vyrd_sched
open Vyrd_boxwood

let chunks = 6
let buf_size = 8
let spec = Cache.spec ~chunks
let full_view = Cache.viewdef ~chunks ~buf_size
let invariant = Cache.invariant_clean_matches_chunk ~chunks ~buf_size

(* Random payload of exactly [buf_size] printable bytes. *)
let payload rng = String.init buf_size (fun _ -> Char.chr (97 + Prng.int rng 26))

let run_cache ?(bugs = []) ~seed ~threads ~ops () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let cm = Chunk_manager.create ~chunks ctx in
      let cache = Cache.create ~bugs ~buf_size ctx cm in
      let stop = ref false in
      (* the flush daemon, as in Boxwood *)
      s.spawn (fun () ->
          while not !stop do
            Cache.flush cache;
            s.yield ()
          done);
      let remaining = ref threads in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 523) + t) in
            for _ = 1 to ops do
              let h = Prng.int rng chunks in
              match Prng.int rng 10 with
              | 0 | 1 | 2 | 3 -> Cache.write cache h (payload rng)
              | 4 | 5 | 6 -> ignore (Cache.read cache h)
              | _ -> Cache.evict cache h
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  log

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let test_cache_correct () =
  for seed = 0 to 14 do
    let log = run_cache ~seed ~threads:4 ~ops:20 () in
    assert_pass
      (Printf.sprintf "cache io seed %d" seed)
      (Checker.check ~mode:`Io log spec);
    assert_pass
      (Printf.sprintf "cache view seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view log spec);
    assert_pass
      (Printf.sprintf "cache invariant seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
  done

let test_cache_keyed_view_agrees () =
  for seed = 0 to 9 do
    let log = run_cache ~seed ~threads:4 ~ops:20 () in
    let full = Checker.check ~mode:`View ~view:full_view log spec in
    let keyed = Checker.check ~mode:`View ~view:Cache.viewdef_keyed log spec in
    Alcotest.(check string)
      (Printf.sprintf "same verdict seed %d" seed)
      (Report.tag full) (Report.tag keyed)
  done

let find_failing ~check ~max_seed ~run =
  let rec go seed =
    if seed > max_seed then None
    else
      let report = check (run ~seed) in
      if Report.is_pass report then go (seed + 1) else Some (seed, report)
  in
  go 0

let buggy_run ~seed =
  run_cache ~bugs:[ Cache.Unprotected_dirty_copy ] ~seed ~threads:4 ~ops:20 ()

let test_cache_bug_view_detected () =
  match
    find_failing ~max_seed:400
      ~check:(fun log -> Checker.check ~mode:`View ~view:full_view log spec)
      ~run:buggy_run
  with
  | None -> Alcotest.fail "unprotected dirty copy never detected by view refinement"
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.View_violation _) -> ()
    | _ -> Alcotest.failf "unexpected %a" Report.pp report)

let test_cache_bug_invariant_detected () =
  match
    find_failing ~max_seed:400
      ~check:(fun log ->
        Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
      ~run:buggy_run
  with
  | None -> Alcotest.fail "unprotected dirty copy never detected by invariant (i)"
  | Some (_, report) ->
    Alcotest.(check bool)
      "invariant or view violation" true
      (List.mem (Report.tag report) [ "invariant"; "view" ])

let test_cache_bug_io_detected () =
  match
    find_failing ~max_seed:1500
      ~check:(fun log -> Checker.check ~mode:`Io log spec)
      ~run:buggy_run
  with
  | None ->
    (* The paper reports the same asymmetry: I/O refinement "required a much
       longer test run" (§7.2.2) — with modest runs it may need very many
       seeds; not finding one within the budget is acceptable, but views
       must win where both detect (covered below). *)
    ()
  | Some (_, report) -> (
    match report.Report.outcome with
    | Report.Fail (Report.Observer_violation _ | Report.Io_violation _) -> ()
    | _ -> Alcotest.failf "unexpected %a" Report.pp report)

let test_cache_view_detects_much_earlier () =
  (* The paper's Cache row of Table 1 has the most dramatic view-vs-I/O
     gap (hundreds of methods vs ~tens).  Where both modes detect the bug,
     view refinement must be no later; across runs it should be strictly
     earlier somewhere. *)
  let io_total = ref 0 and view_total = ref 0 and both = ref 0 and strictly = ref 0 in
  for seed = 0 to 200 do
    let log = buggy_run ~seed in
    let io = Checker.check ~mode:`Io log spec in
    let view = Checker.check ~mode:`View ~view:full_view log spec in
    if not (Report.is_pass view) then begin
      if not (Report.is_pass io) then begin
        incr both;
        io_total := !io_total + io.Report.stats.methods_checked;
        view_total := !view_total + view.Report.stats.methods_checked;
        if view.Report.stats.methods_checked < io.Report.stats.methods_checked then
          incr strictly
      end
      else incr strictly
      (* view detected, io missed entirely: the strongest form of winning *)
    end
  done;
  Alcotest.(check bool) "view strictly earlier somewhere" true (!strictly > 0);
  if !both > 0 then
    Alcotest.(check bool)
      (Printf.sprintf "view (%d) <= io (%d)" !view_total !io_total)
      true
      (!view_total <= !io_total)

let test_read_fill_is_view_neutral () =
  (* read_fill installs clean entries; the abstract store must be unchanged,
     invariant (i) must keep holding, and subsequent reads must hit. *)
  for seed = 0 to 9 do
    let log = Log.create ~level:`View () in
    Coop.run ~seed (fun s ->
        let ctx = Instrument.make s log in
        let cm = Chunk_manager.create ~chunks ctx in
        let cache = Cache.create ~buf_size ctx cm in
        let stop = ref false in
        s.spawn (fun () ->
            while not !stop do
              Cache.flush cache;
              s.yield ()
            done);
        let remaining = ref 4 in
        for t = 1 to 4 do
          s.spawn (fun () ->
              let rng = Prng.create ((seed * 67) + t) in
              for _ = 1 to 20 do
                let h = Prng.int rng chunks in
                match Prng.int rng 10 with
                | 0 | 1 | 2 -> Cache.write cache h (payload rng)
                | 3 | 4 | 5 | 6 -> ignore (Cache.read_fill cache h)
                | _ -> Cache.evict cache h
              done;
              decr remaining;
              if !remaining = 0 then stop := true)
        done);
    assert_pass
      (Printf.sprintf "read_fill view seed %d" seed)
      (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)
  done

let test_cache_sequential_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let cm = Chunk_manager.create ~chunks ctx in
      let cache = Cache.create ~buf_size ctx cm in
      Alcotest.(check string) "read of never-written" "" (Cache.read cache 0);
      Cache.write cache 0 "hello";
      let padded = "hello" ^ String.make 3 '\000' in
      Alcotest.(check string) "read back" padded (Cache.read cache 0);
      Alcotest.(check string) "chunk not yet written" "" (Chunk_manager.read cm 0);
      Cache.flush cache;
      Alcotest.(check string) "chunk after flush" padded (Chunk_manager.read cm 0);
      Alcotest.(check int) "version bumped" 1 (Chunk_manager.version cm 0);
      Cache.evict cache 0;
      Alcotest.(check string) "read after evict" padded (Cache.read cache 0);
      Cache.write cache 1 "dirty";
      Cache.evict cache 1;
      Alcotest.(check string) "dirty evict wrote back"
        ("dirty" ^ String.make 3 '\000')
        (Chunk_manager.read cm 1));
  assert_pass "sequential cache"
    (Checker.check ~mode:`View ~view:full_view ~invariants:[ invariant ] log spec)

(* --- keyed view and keyed spec against the whole compare ------------------ *)

let qcheck t = QCheck_alcotest.to_alcotest t

type variant = Correct | Dirty_copy_bug | Stale_writeback

let gen_session =
  QCheck2.Gen.(pair (int_range 0 100_000) (oneofl [ Correct; Dirty_copy_bug; Stale_writeback ]))

let print_session (seed, variant) =
  Printf.sprintf "seed %d, %s" seed
    (match variant with
    | Correct -> "correct"
    | Dirty_copy_bug -> "unprotected dirty copy"
    | Stale_writeback -> "stale writeback")

let session_log (seed, variant) =
  let bugs = match variant with Dirty_copy_bug -> [ Cache.Unprotected_dirty_copy ] | _ -> [] in
  let run () = run_cache ~bugs ~seed ~threads:4 ~ops:20 () in
  match variant with
  | Stale_writeback -> Vyrd_faults.Faults.with_armed Cache.fault_stale_writeback run
  | Correct | Dirty_copy_bug -> run ()

let differential_keyed =
  qcheck
    (QCheck2.Test.make ~name:"keyed view + keyed spec == reference with full view"
       ~count:150 ~print:print_session gen_session (fun session ->
         Test_blink.agrees_with_reference ~keyed:Cache.viewdef_keyed ~oracle:full_view
           (session_log session) spec))

let keyed_spec_contract =
  let step =
    QCheck2.Gen.(
      let handle = int_range (-1) chunks in
      frequency
        [
          ( 4,
            map2
              (fun h d -> ("write", [ Repr.Int h; Repr.Str d ], Repr.Unit))
              handle
              (oneofl [ ""; "ab"; "abcdefgh" ]) );
          (1, return ("flush", [], Repr.Unit));
          (1, map (fun h -> ("evict", [ Repr.Int h ], Repr.Unit)) handle);
        ])
  in
  qcheck
    (QCheck2.Test.make ~name:"cache spec honours the keyed contract" ~count:300
       QCheck2.Gen.(list_size (int_range 0 30) step)
       (fun steps ->
         match Spec.as_keyed spec with
         | None -> false
         | Some k ->
           Test_core.keyed_contract k
             ~probe:(List.init (chunks + 2) (fun i -> Repr.Int (i - 1)))
             steps))

let suite =
  [
    ("cache correct", `Quick, test_cache_correct);
    ("cache keyed view agrees with full", `Quick, test_cache_keyed_view_agrees);
    ("cache bug: view detects", `Quick, test_cache_bug_view_detected);
    ("cache bug: invariant detects", `Quick, test_cache_bug_invariant_detected);
    ("cache bug: io eventually detects", `Slow, test_cache_bug_io_detected);
    ("cache bug: view much earlier than io", `Slow, test_cache_view_detects_much_earlier);
    ("read_fill is view neutral", `Quick, test_read_fill_is_view_neutral);
    ("cache sequential semantics", `Quick, test_cache_sequential_semantics);
    differential_keyed;
    keyed_spec_contract;
  ]
