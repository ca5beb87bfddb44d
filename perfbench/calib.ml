(* The host's speed, measured alongside each pass with a fixed piece of work.

   On a shared KVM guest the CPU itself runs up to twice as fast in one
   phase of the host as in another, and phases last from milliseconds to
   minutes (no time is stolen: the guest's own CPU time grows with the
   wall time).  Every path of a run moves with them.  So a pass runs a
   slice of the work below after each of its sessions, for a fixed share
   of the session's time, and the end-to-end metrics are scaled to a host
   that runs the work at [nominal] units per second.  The work belongs to
   the benchmark and never changes with the program: it builds and folds a
   256-key balanced tree that dies young, so it allocates like the
   checkers but leaves nothing for the major heap.  Of the kernels tried
   (pointer chasing over 512 KiB and 8 MiB, pure arithmetic, this one), its
   speed tracked the checkers' best, at a correlation of 0.78 over 150 ms
   windows. *)

module IM = Map.Make (Int)

let unit_of_work () =
  let m = ref IM.empty and x = ref 0x2545f491 in
  for i = 1 to 256 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := IM.add (!x land 1023) i !m
  done;
  ignore (Sys.opaque_identity (IM.fold (fun k v a -> k + v + a) !m 0))

(* Units per second on a typical phase of a 2-core KVM guest (OCaml
   5.1.1), alone and beside an idle domain; any constants would do, these
   keep calibrated figures near the raw ones. *)
let nominal ~idle = if idle then 27000. else 30000.

(* Each sample runs for [share] of the time it accompanies, at least
   [min_sample] seconds. *)
let share = 0.3

let min_sample = 0.002

(* With [idle], each sample runs beside a second domain that is alive but
   idle, as the farm's feeder or a daemon's reader is while a lane checks:
   every minor collection then stops both domains, and how long that takes
   varies with the host far more than the work itself.  Paths that run
   more than one domain, in the benchmark or in a daemon, are calibrated
   this way. *)
type meter = { idle : bool; mutable units : int; mutable secs : float }

let meter ~idle = { idle; units = 0; secs = 0. }

let run_until deadline =
  let rec go n =
    unit_of_work ();
    if Unix.gettimeofday () < deadline then go (n + 1) else n
  in
  go 1

let timed m target =
  let t0 = Unix.gettimeofday () in
  let n = run_until (t0 +. target) in
  m.units <- m.units + n;
  m.secs <- m.secs +. (Unix.gettimeofday () -. t0)

(* A sample to accompany [secs] seconds of the program's work. *)
let sample m ~secs =
  let target = Float.max min_sample (share *. secs) in
  if not m.idle then timed m target
  else begin
    let gate = Mutex.create () in
    Mutex.lock gate;
    let idle = Domain.spawn (fun () -> Mutex.lock gate; Mutex.unlock gate) in
    timed m target;
    Mutex.unlock gate;
    Domain.join idle
  end

(* The mean speed over a meter's samples, relative to its nominal. *)
let speed m = float_of_int m.units /. m.secs /. nominal ~idle:m.idle
