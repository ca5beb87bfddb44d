(* Tests for the B-link tree: sequential semantics, concurrent refinement,
   compression, the duplicate-data-node bug, and the cached-store stack. *)

open Vyrd
open Vyrd_sched
open Vyrd_boxwood

let assert_pass what report =
  if not (Report.is_pass report) then
    Alcotest.failf "%s: expected pass, got %a" what Report.pp report

let check_io log = Checker.check ~mode:`Io log Blink_tree.spec

let check_view log =
  Checker.check ~mode:`View ~view:Blink_tree.viewdef log Blink_tree.spec

(* --- sequential semantics -------------------------------------------- *)

let test_sequential_map_semantics () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let tree = Blink_tree.create ~order:4 (Bnode.mem_store ctx) ctx in
      for k = 1 to 40 do
        Blink_tree.insert tree k (k * 10)
      done;
      Alcotest.(check (option int)) "lookup present" (Some 70) (Blink_tree.lookup tree 7);
      Alcotest.(check (option int)) "lookup absent" None (Blink_tree.lookup tree 99);
      Blink_tree.insert tree 7 777;
      Alcotest.(check (option int)) "overwrite" (Some 777) (Blink_tree.lookup tree 7);
      Alcotest.(check bool) "delete present" true (Blink_tree.delete tree 7);
      Alcotest.(check bool) "delete absent" false (Blink_tree.delete tree 7);
      Alcotest.(check (option int)) "deleted" None (Blink_tree.lookup tree 7);
      Alcotest.(check int) "size" 39 (List.length (Blink_tree.unsafe_contents tree));
      Alcotest.(check bool) "tree grew in height" true (Blink_tree.unsafe_height tree > 1);
      let expected =
        List.filter (fun k -> k <> 7) (List.init 40 (fun i -> i + 1))
        |> List.map (fun k -> (k, k * 10))
      in
      Alcotest.(check (list (pair int int))) "contents" expected
        (Blink_tree.unsafe_contents tree));
  assert_pass "sequential tree io" (check_io log);
  assert_pass "sequential tree view" (check_view log)

let test_sequential_descending_inserts () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let tree = Blink_tree.create ~order:2 (Bnode.mem_store ctx) ctx in
      for k = 30 downto 1 do
        Blink_tree.insert tree k k
      done;
      for k = 1 to 30 do
        Alcotest.(check (option int))
          (Printf.sprintf "lookup %d" k)
          (Some k) (Blink_tree.lookup tree k)
      done);
  assert_pass "descending inserts" (check_view log)

let test_compression_prunes () =
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let tree = Blink_tree.create ~order:4 (Bnode.mem_store ctx) ctx in
      for k = 1 to 30 do
        Blink_tree.insert tree k k
      done;
      for k = 1 to 25 do
        ignore (Blink_tree.delete tree k)
      done;
      (* drive compression to a fixpoint *)
      for _ = 1 to 60 do
        Blink_tree.compress tree
      done;
      for k = 26 to 30 do
        Alcotest.(check (option int))
          (Printf.sprintf "survivor %d" k)
          (Some k) (Blink_tree.lookup tree k)
      done;
      Alcotest.(check (list (pair int int)))
        "contents preserved"
        (List.init 5 (fun i -> (26 + i, 26 + i)))
        (Blink_tree.unsafe_contents tree));
  assert_pass "compression io" (check_io log);
  assert_pass "compression view" (check_view log)

let test_version_numbers () =
  (* §7.2.4: the view carries per-pair version numbers, bumped on overwrite
     and reset when a key is re-inserted after deletion.  A forged version
     in the log must be flagged. *)
  let log = Log.create ~level:`View () in
  Coop.run (fun s ->
      let ctx = Instrument.make s log in
      let tree = Blink_tree.create ~order:4 (Bnode.mem_store ctx) ctx in
      Blink_tree.insert tree 1 10;
      Blink_tree.insert tree 1 11;
      Blink_tree.insert tree 1 12;
      (* version 3 now *)
      ignore (Blink_tree.delete tree 1);
      Blink_tree.insert tree 1 13 (* re-inserted: version restarts at 1 *));
  assert_pass "versioned run" (check_view log);
  (* forge the version of the final insert's committed node write *)
  let evs = Log.events log in
  let n = List.length evs in
  let forged =
    List.mapi
      (fun i ev ->
        match ev with
        | Event.Write { tid; var; value } when i > n - 4 -> (
          (* bump any version list [1] to [9] in the last committed write *)
          match value with
          | Repr.List
              [ lvl; keys; vals; Repr.List [ Repr.Int 1 ]; ch; hi; r; d ] ->
            Event.Write
              { tid; var;
                value =
                  Repr.List
                    [ lvl; keys; vals; Repr.List [ Repr.Int 9 ]; ch; hi; r; d ] }
          | _ -> ev)
        | _ -> ev)
      evs
  in
  Alcotest.(check string) "forged version flagged" "view"
    (Report.tag (check_view (Log.of_events forged)))

(* --- concurrent runs --------------------------------------------------- *)

let run_tree ?(bugs = []) ?(order = 4) ?(compressor = false) ~seed ~threads ~ops ~keys
    () =
  let log = Log.create ~level:`View () in
  Coop.run ~seed (fun s ->
      let ctx = Instrument.make s log in
      let tree = Blink_tree.create ~bugs ~order (Bnode.mem_store ctx) ctx in
      let stop = ref false in
      if compressor then
        s.spawn (fun () ->
            while not !stop do
              Blink_tree.compress tree;
              s.yield ()
            done);
      let remaining = ref threads in
      for t = 1 to threads do
        s.spawn (fun () ->
            let rng = Prng.create ((seed * 2357) + t) in
            for _ = 1 to ops do
              let k = Prng.int rng keys in
              match Prng.int rng 10 with
              | 0 | 1 | 2 | 3 -> Blink_tree.insert tree k (Prng.int rng 1000)
              | 4 | 5 -> ignore (Blink_tree.delete tree k)
              | _ -> ignore (Blink_tree.lookup tree k)
            done;
            decr remaining;
            if !remaining = 0 then stop := true)
      done);
  log

let test_concurrent_correct () =
  for seed = 0 to 14 do
    let log = run_tree ~seed ~threads:4 ~ops:25 ~keys:12 () in
    assert_pass (Printf.sprintf "tree io seed %d" seed) (check_io log);
    assert_pass (Printf.sprintf "tree view seed %d" seed) (check_view log)
  done

let test_concurrent_with_compressor () =
  for seed = 0 to 14 do
    let log = run_tree ~compressor:true ~seed ~threads:4 ~ops:25 ~keys:8 () in
    assert_pass (Printf.sprintf "tree+compress seed %d" seed) (check_view log)
  done

let test_small_order_stress () =
  (* order 2 maximizes splits; make sure restructuring stays view-neutral *)
  for seed = 0 to 9 do
    let log = run_tree ~order:2 ~compressor:true ~seed ~threads:5 ~ops:25 ~keys:20 () in
    assert_pass (Printf.sprintf "order-2 seed %d" seed) (check_view log)
  done

let test_duplicate_bug_detected () =
  let rec go seed =
    if seed > 300 then Alcotest.fail "duplicate-data-node bug never detected"
    else
      let log =
        run_tree ~bugs:[ Blink_tree.Duplicate_data_nodes ] ~seed ~threads:4 ~ops:25
          ~keys:6 ()
      in
      let report = check_view log in
      if Report.is_pass report then go (seed + 1)
      else
        match report.Report.outcome with
        | Report.Fail (Report.View_violation { exec; _ }) ->
          Alcotest.(check string) "insert commits the duplicate" "insert" exec.e_mid
        | _ -> Alcotest.failf "unexpected %a" Report.pp report
  in
  go 0

(* --- the full Boxwood stack: tree over cache over chunks --------------- *)

let test_tree_over_cache_stack () =
  for seed = 0 to 7 do
    let tree_log = Log.create ~level:`View () in
    Coop.run ~seed (fun s ->
        (* cache+chunks as unverified substrate: null log, same scheduler *)
        let null_ctx = Instrument.make s (Log.create ~level:`None ()) in
        let cm = Chunk_manager.create ~chunks:256 null_ctx in
        let cache = Cache.create ~buf_size:512 null_ctx cm in
        let tree_ctx = Instrument.make s tree_log in
        let store = Cached_store.make cache ~tree_ctx in
        let tree = Blink_tree.create ~order:4 store tree_ctx in
        let stop = ref false in
        s.spawn (fun () ->
            while not !stop do
              Cache.flush cache;
              s.yield ()
            done);
        let remaining = ref 3 in
        for t = 1 to 3 do
          s.spawn (fun () ->
              let rng = Prng.create ((seed * 7) + t) in
              for _ = 1 to 20 do
                let k = Prng.int rng 10 in
                match Prng.int rng 10 with
                | 0 | 1 | 2 | 3 -> Blink_tree.insert tree k (Prng.int rng 100)
                | 4 | 5 -> ignore (Blink_tree.delete tree k)
                | _ -> ignore (Blink_tree.lookup tree k)
              done;
              decr remaining;
              if !remaining = 0 then stop := true)
        done);
    assert_pass (Printf.sprintf "stack io seed %d" seed) (check_io tree_log);
    assert_pass (Printf.sprintf "stack view seed %d" seed) (check_view tree_log)
  done

let test_node_serialization_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Bnode serialize/deserialize roundtrip"
       QCheck2.Gen.(
         let* level = int_range 0 3 in
         let* keys = list_size (int_range 0 6) small_int in
         let* vals = list_size (int_range 0 6) small_int in
         let* vers = list_size (int_range 0 6) small_int in
         let* children = list_size (int_range 0 7) small_int in
         let* high = int_range 0 1000 in
         let* right = option small_int in
         let* dead = bool in
         return { Bnode.level; keys; vals; vers; children; high; right; dead })
       (fun n ->
         let n' = Bnode.deserialize (Bnode.serialize n) in
         n' = n
         &&
         (* NUL padding, as applied by the cache, must not break parsing *)
         Bnode.deserialize (Bnode.serialize n ^ String.make 7 '\000') = n))

(* --- the incremental view against its oracles ---------------------------- *)

let qcheck t = QCheck_alcotest.to_alcotest t

type variant = Correct | Duplicate_bug | Torn_split

let pp_variant = function
  | Correct -> "correct"
  | Duplicate_bug -> "duplicate bug"
  | Torn_split -> "torn split"

(* Sessions that split, merge and unlink: small orders, a compressor, and a
   key range wide enough to grow the tree a few levels. *)
let gen_session =
  QCheck2.Gen.(
    quad (int_range 0 100_000)
      (oneofl [ Correct; Duplicate_bug; Torn_split ])
      bool (int_range 2 4))

let print_session (seed, variant, compressor, order) =
  Printf.sprintf "seed %d, %s, compressor %b, order %d" seed (pp_variant variant)
    compressor order

let session_log (seed, variant, compressor, order) =
  let bugs = match variant with Duplicate_bug -> [ Blink_tree.Duplicate_data_nodes ] | _ -> [] in
  let run () = run_tree ~bugs ~order ~compressor ~seed ~threads:4 ~ops:25 ~keys:24 () in
  match variant with
  | Torn_split -> Vyrd_faults.Faults.with_armed Blink_tree.fault_torn_split run
  | Correct | Duplicate_bug -> run ()

(* (tag, first-violation index) of the checker with the incremental view
   must equal the reference's prediction with the chain-walk view. *)
let agrees_with_reference ~keyed ~oracle log spec =
  let report, idx = Checker.check_indexed ~mode:`View ~view:keyed log spec in
  match (Reference.check_indexed ~view:oracle log spec, Report.is_pass report) with
  | Ok (), true -> idx = None
  | Error f, false -> idx = Some f.Reference.f_index && Report.tag report = f.Reference.f_kind
  | _ -> false

let differential_incremental =
  qcheck
    (QCheck2.Test.make ~name:"incremental view == reference with chain walk" ~count:150
       ~print:print_session gen_session (fun session ->
         agrees_with_reference ~keyed:Blink_tree.viewdef_keyed ~oracle:Blink_tree.viewdef
           (session_log session) Blink_tree.spec))

let differential_farm_single =
  qcheck
    (QCheck2.Test.make ~name:"single-shard farm (incremental) == offline chain walk"
       ~count:40 ~print:print_session gen_session (fun session ->
         let log = session_log session in
         let report, idx = Checker.check_indexed ~mode:`View ~view:Blink_tree.viewdef log Blink_tree.spec in
         let module Farm = Vyrd_pipeline.Farm in
         let farm =
           Farm.start ~level:(Log.level log)
             [ Farm.shard ~mode:`View ~view:Blink_tree.viewdef_keyed "blink" Blink_tree.spec ]
         in
         Log.iter (Farm.feed farm) log;
         let res = Farm.finish farm in
         Report.tag res.Farm.merged = Report.tag report && Farm.min_fail_index res = idx))

(* The view is compared key by key, so each side's violation lists only the
   entries that differ: here the duplicate of one key. *)
let test_violation_lists_the_difference () =
  let rec go seed =
    if seed > 300 then Alcotest.fail "duplicate-data-node bug never detected"
    else
      let log = session_log (seed, Duplicate_bug, false, 4) in
      match
        (Checker.check ~mode:`View ~view:Blink_tree.viewdef_keyed log Blink_tree.spec)
          .Report.outcome
      with
      | Report.Fail (Report.View_violation { view_i = Repr.List is; view_s = Repr.List ss; _ }) ->
        let key = function Repr.Pair (k, _) -> k | v -> v in
        Alcotest.(check int) "implementation holds the key twice" 2 (List.length is);
        Alcotest.(check int) "specification holds it once" 1 (List.length ss);
        Alcotest.(check bool) "same key" true
          (List.for_all (fun e -> Repr.equal (key e) (key (List.hd ss))) is)
      | Report.Fail v -> Alcotest.failf "unexpected %a" Report.pp_violation v
      | Report.Pass -> go (seed + 1)
  in
  go 0

(* Random shadows, well-formed or not: dangling and cyclic right links,
   childless and self-parenting internal nodes, undecodable values, ragged
   leaves, and splits that follow the B-link pattern.  After every commit the
   incremental view must equal the chain walk's. *)
type shadow_op =
  | Put of int * Bnode.t
  | Garbage of int
  | Root of int
  | Split of int * int * Bnode.t  (* split [h] into [h] and a fresh [h'] *)

let gen_node =
  QCheck2.Gen.(
    let small = int_range 0 5 in
    let* level = frequency [ (4, return 0); (1, return 1) ] in
    let* keys = list_size (int_range 0 3) (int_range 0 7) in
    let* ragged = frequency [ (9, return false); (1, return true) ] in
    let n = List.length keys + if ragged then 1 else 0 in
    let* vals = list_repeat n (int_range 0 3) in
    let* vers = list_repeat (List.length keys) (int_range 1 2) in
    let* children = list_size (int_range 0 2) small in
    let* right = option small in
    let* dead = frequency [ (5, return false); (1, return true) ] in
    return { Bnode.level; keys; vals; vers; children; high = max_int; right; dead })

let gen_shadow_op =
  QCheck2.Gen.(
    let small = int_range 0 5 in
    frequency
      [
        (6, map2 (fun h n -> Put (h, n)) small gen_node);
        (1, map (fun h -> Garbage h) small);
        (1, map (fun h -> Root h) small);
        (4, map3 (fun h h' n -> Split (h, h', n)) small small gen_node);
      ])

let print_shadow_op = function
  | Put (h, n) -> Printf.sprintf "put %d %s" h (Repr.to_string (Bnode.to_repr n))
  | Garbage h -> Printf.sprintf "garbage %d" h
  | Root h -> Printf.sprintf "root %d" h
  | Split (h, h', n) -> Printf.sprintf "split %d -> %d %s" h h' (Repr.to_string (Bnode.to_repr n))

let incremental_equals_chain_walk =
  qcheck
    (QCheck2.Test.make ~name:"incremental view == chain walk on random shadows" ~count:500
       ~print:QCheck2.Print.(list (list print_shadow_op))
       QCheck2.Gen.(list_size (int_range 1 25) (list_size (int_range 1 3) gen_shadow_op))
       (fun commits ->
         let r = Replay.create () in
         let write var v = Replay.write r 1 var v in
         let put h n = write (Bnode.var h) (Bnode.to_repr n) in
         let node h =
           match Replay.lookup r (Bnode.var h) with
           | Some v -> ( try Some (Bnode.of_repr v) with Repr.Parse_error _ -> None)
           | None -> None
         in
         let keyed = View.make_eval Blink_tree.viewdef_keyed in
         let full = View.make_eval Blink_tree.viewdef in
         write "tree.root" (Repr.Int 0);
         List.for_all
           (fun ops ->
             List.iter
               (function
                 | Put (h, n) -> put h n
                 | Garbage h -> write (Bnode.var h) (Repr.Str "garbage")
                 | Root h -> write "tree.root" (Repr.Int h)
                 | Split (h, h', n) -> (
                   match node h with
                   | Some old ->
                     put h' { n with Bnode.right = old.Bnode.right };
                     put h { old with Bnode.right = Some h' }
                   | None -> ()))
               ops;
             Repr.equal (View.recompute keyed r) (View.recompute full r))
           commits))

let keyed_spec_contract =
  let step =
    QCheck2.Gen.(
      let key = int_range 0 9 in
      frequency
        [
          (4, map2 (fun k v -> ("insert", [ Repr.Int k; Repr.Int v ], Repr.Unit)) key (int_range 0 3));
          (3, map2 (fun k b -> ("delete", [ Repr.Int k ], Repr.Bool b)) key bool);
          (1, return ("compress", [], Repr.Unit));
        ])
  in
  let print (mid, args, ret) =
    Printf.sprintf "%s(%s) -> %s" mid (String.concat ", " (List.map Repr.to_string args))
      (Repr.to_string ret)
  in
  qcheck
    (QCheck2.Test.make ~name:"blink-tree spec honours the keyed contract" ~count:300
       ~print:QCheck2.Print.(list print)
       QCheck2.Gen.(list_size (int_range 0 40) step)
       (fun steps ->
         match Spec.as_keyed Blink_tree.spec with
         | None -> false
         | Some k ->
           Test_core.keyed_contract k
             ~probe:(Repr.Str "x" :: List.init 11 (fun i -> Repr.Int i))
             steps))

(* --- malformed shadows: the view is total --------------------------------- *)

(* One insert whose commit publishes [root] as the root node and points
   tree.root at it; the spec then holds key 7, so the view must convict at
   that commit — without raising and without looping. *)
let malformed_root_log root =
  let node h n = Event.Write { tid = 1; var = Bnode.var h; value = Bnode.to_repr n } in
  Log.of_events
    [
      node 0 Bnode.empty_leaf;
      Event.Write { tid = 1; var = "tree.root"; value = Repr.Int 0 };
      Event.Call { tid = 1; mid = "insert"; args = [ Repr.Int 7; Repr.Int 1 ] };
      node 1 root;
      Event.Write { tid = 1; var = "tree.root"; value = Repr.Int 1 };
      Event.Commit { tid = 1 };
      Event.Return { tid = 1; mid = "insert"; value = Repr.Unit };
    ]

let childless_root = { Bnode.empty_leaf with Bnode.level = 1; keys = []; children = [] }
let self_child_root = { Bnode.empty_leaf with Bnode.level = 1; keys = []; children = [ 1 ] }
let malformed_logs = [ ("childless root", childless_root); ("self-child root", self_child_root) ]

let test_malformed_spine_convicts () =
  List.iter
    (fun (name, root) ->
      let log = malformed_root_log root in
      List.iter
        (fun (which, view) ->
          let report, idx = Checker.check_indexed ~mode:`View ~view log Blink_tree.spec in
          Alcotest.(check string) (name ^ ", " ^ which ^ ": tag") "view" (Report.tag report);
          Alcotest.(check (option int)) (name ^ ", " ^ which ^ ": at the return") (Some 6) idx)
        [ ("chain walk", Blink_tree.viewdef); ("incremental", Blink_tree.viewdef_keyed) ])
    malformed_logs

let suite =
  [
    ("sequential map semantics", `Quick, test_sequential_map_semantics);
    ("sequential descending inserts", `Quick, test_sequential_descending_inserts);
    ("compression prunes and preserves", `Quick, test_compression_prunes);
    ("version numbers (§7.2.4)", `Quick, test_version_numbers);
    ("concurrent correct", `Quick, test_concurrent_correct);
    ("concurrent with compressor", `Quick, test_concurrent_with_compressor);
    ("order-2 split stress", `Quick, test_small_order_stress);
    ("duplicate-data-node bug detected", `Quick, test_duplicate_bug_detected);
    ("tree over cache over chunks", `Quick, test_tree_over_cache_stack);
    test_node_serialization_roundtrip;
    incremental_equals_chain_walk;
    keyed_spec_contract;
    differential_incremental;
    differential_farm_single;
    ("view violation lists the difference", `Quick, test_violation_lists_the_difference);
    ("malformed spine convicts, total", `Quick, test_malformed_spine_convicts);
  ]
