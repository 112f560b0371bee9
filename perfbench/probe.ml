(* Out-of-process-style layer attribution: each call into a library
   layer is wrapped from the benchmark's side with a wall clock and a
   [Gc.quick_stat] delta. Nothing inside the library is instrumented;
   the round engine's own time comes from its public [congest.round]
   spans (see [Batch]). *)

let now = Unix.gettimeofday

type cost = {
  s : float;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let zero =
  { s = 0.; minor_words = 0.; promoted_words = 0.; minor_collections = 0;
    major_collections = 0 }

let add a b =
  {
    s = a.s +. b.s;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

(* [measure f] runs [f] and returns its result with its cost. *)
let measure f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      s = t1 -. t0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* A per-solve ledger of layer costs, keyed by layer name. With
   [traced = false] a call costs one branch and records nothing. *)
type ledger = { traced : bool; mutable entries : (string * cost) list }

let ledger ~traced = { traced; entries = [] }

let call l name f =
  if not l.traced then f ()
  else begin
    let r, c = measure f in
    let prev = Option.value ~default:zero (List.assoc_opt name l.entries) in
    l.entries <- (name, add prev c) :: List.remove_assoc name l.entries;
    r
  end

let cost l name = Option.value ~default:zero (List.assoc_opt name l.entries)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
