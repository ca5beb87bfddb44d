(* Tests for the benchmark's pure parts: the percentile rule and span
   self-time accounting. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  check "odd median" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "even median" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "single median" (Stats.median [ 7. ] = 7.);
  check "empty median raises"
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true)

let test_percentile () =
  let xs = floats 100 in
  check "p50 of 1..100" (Stats.percentile xs 50. = 50.);
  check "p90 of 1..100" (Stats.percentile xs 90. = 90.);
  check "p100 is the max" (Stats.percentile xs 100. = 100.);
  check "p99.9 of 1..1000" (Stats.percentile (floats 1000) 99.9 = 999.);
  check "percentile ignores input order"
    (Stats.percentile (List.rev xs) 90. = 90.)

(* The highest percentile with at least ten samples beyond it. *)
let test_tail_percentile () =
  check "19 samples: none" (Stats.tail_percentile 19 = None);
  check "20 samples: p50" (Stats.tail_percentile 20 = Some 50.);
  check "99 samples: p50" (Stats.tail_percentile 99 = Some 50.);
  check "100 samples: p90" (Stats.tail_percentile 100 = Some 90.);
  check "999 samples: p90" (Stats.tail_percentile 999 = Some 90.);
  check "1000 samples: p99" (Stats.tail_percentile 1000 = Some 99.);
  check "10000 samples: p99.9" (Stats.tail_percentile 10_000 = Some 99.9);
  (* the rule holds for every n: >= 10 samples strictly above the tail *)
  for n = 20 to 3000 do
    match Stats.tail_percentile n with
    | None -> check (Printf.sprintf "n=%d has a tail" n) false
    | Some p ->
      let xs = floats n in
      let v = Stats.percentile xs p in
      let beyond = List.length (List.filter (fun x -> x > v) xs) in
      check (Printf.sprintf "n=%d p%g leaves %d beyond" n p beyond) (beyond >= 10)
  done

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stats.quartiles [ 5.; 1.; 3. ] in
  check "quartiles of three" (close q1 1. && close q2 3. && close q3 5.);
  let q1, q2, q3 = Stats.quartiles [ 2.; 4. ] in
  check "quartiles of two" (close q1 1.5 && close q2 3. && close q3 4.5);
  check "spread 1..10" (close (Stats.spread (floats 10)) (5.5 /. 5.5));
  check "spread of a constant" (Stats.spread [ 3.; 3.; 3. ] = 0.)

let span ?parent id name start stop =
  { Spans.id; name; start; stop; parent; session = 0 }

let test_self_time () =
  let root = span 0 "root" 0. 10. in
  let a = span ~parent:0 1 "a" 1. 4. in
  let b = span ~parent:0 2 "b" 3. 6. in
  (* grandchild: covered by [a], not by [root] directly *)
  let g = span ~parent:1 3 "g" 1.5 2.5 in
  let all = [ root; a; b; g ] in
  check "overlapping children count once" (close (Spans.self_time all root) 5.);
  check "child minus grandchild" (close (Spans.self_time all a) 2.);
  check "leaf self time is its duration" (close (Spans.self_time all b) 3.);
  let spill = span ~parent:0 4 "late" 9. 12. in
  check "children are clipped to the parent"
    (close (Spans.self_time [ root; spill ] root) 9.);
  let inner = span ~parent:5 6 "inner" 0. 5. in
  check "never negative"
    (Spans.self_time [ span 5 "short" 1. 2.; inner ] (span 5 "short" 1. 2.) = 0.)

let test_self_times () =
  let spans =
    [
      span 0 "vyrdd.session" 0. 10.;
      span ~parent:0 1 "client.send" 0. 6.;
      span ~parent:0 2 "client.finish" 6. 9.;
      span 3 "vyrdd.session" 20. 24.;
      span ~parent:3 4 "client.send" 20. 22.;
      span 5 "farm.session" 30. 31.;
      span ~parent:5 6 "client.send" 30. 30.5;
    ]
  in
  let rows = Spans.self_times spans in
  let find root name =
    List.find_map
      (fun (r, n, total, count) ->
        if r = root && n = name then Some (total, count) else None)
      rows
  in
  check "sums per root and name"
    (match find "vyrdd.session" "client.send" with
    | Some (t, 2) -> close t 8.
    | _ -> false);
  check "root self time"
    (match find "vyrdd.session" "vyrdd.session" with
    | Some (t, 2) -> close t 3.
    | _ -> false);
  check "same name under another root is separate"
    (match find "farm.session" "client.send" with
    | Some (t, 1) -> close t 0.5
    | _ -> false)

let test_recorder () =
  let t = Spans.create ~enabled:false in
  check "disabled recorder passes -1" (Spans.with_span t ~session:1 "x" Fun.id = -1);
  check "disabled recorder keeps nothing" (Spans.spans t = []);
  Spans.set_enabled t true;
  let inner =
    Spans.with_span t ~session:7 "outer" (fun id ->
        Spans.with_span t ~parent:id ~session:7 "inner" Fun.id)
  in
  (match Spans.spans t with
  | [ i; o ] ->
    check "inner closes first" (i.name = "inner" && i.id = inner);
    check "parent link" (i.parent = Some o.id && o.parent = None);
    check "session id kept" (i.session = 7 && o.session = 7);
    check "nested interval" (o.start <= i.start && i.stop <= o.stop)
  | _ -> check "two spans recorded" false);
  (match Spans.with_span t ~session:0 "raises" (fun _ -> failwith "boom") with
  | () -> check "exception propagates" false
  | exception Failure _ -> ());
  check "raising span still recorded"
    (List.exists (fun (s : Spans.span) -> s.name = "raises") (Spans.spans t))

let () =
  test_median ();
  test_percentile ();
  test_tail_percentile ();
  test_quartiles ();
  test_self_time ();
  test_self_times ();
  test_recorder ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "vbench: all checks passed"
