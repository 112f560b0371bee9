(* Whole-pipeline benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--decompose PATH] [--smoke] [--spec BASE]
               [--break digest|size|reply|drain]

   Prints a human-readable table, then one JSON line: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
   when any correctness gate failed (after printing the result with
   "correct": false) and 2 on a degenerate input or a usage error. See
   README.md for the workloads and what each metric should move. *)

let spec base seed = Printf.sprintf "%s,seed=%d" base seed

let batch_workloads ~smoke =
  let open Batch in
  [
    {
      name = "vertex-exact";
      kind = Vertex None;
      pool = 4;
      spec =
        spec (if smoke then "random:n=48,k=8,extra=100" else "random:n=160,k=8,extra=640");
      floor_conn = 8;
      floor_size = 1.0;
    };
    {
      name = "vertex-k";
      kind = Vertex (Some 8);
      pool = 2;
      spec =
        spec (if smoke then "random:n=64,k=8,extra=150" else "random:n=384,k=8,extra=1100");
      floor_conn = 8;
      floor_size = 1.0;
    };
    {
      name = "edge-dist";
      kind = Edge;
      pool = 4;
      spec =
        spec (if smoke then "random:n=24,k=8,extra=24" else "random:n=48,k=8,extra=50");
      floor_conn = 8;
      floor_size = 3.4;
    };
  ]

(* Every run prints every metric BENCHMARK.json declares for its trace
   mode; a layer a workload never enters reads 0. *)
let per_layer =
  [
    ("graphs.source.s", "s"); ("graphs.connectivity.vc_s", "s");
    ("graphs.connectivity.ec_s", "s"); ("graphs.connectivity.minor_words", "words");
    ("graphs.connectivity.promoted_words", "words"); ("congest.net.create_s", "s");
    ("congest.net.round_s", "s"); ("congest.net.us_per_round", "us");
    ("congest.net.ns_per_message", "ns"); ("congest.net.rounds", "count");
    ("congest.net.messages", "count"); ("congest.net.words", "count");
    ("congest.net.budget_util", "ratio"); ("congest.net.max_node_load", "words");
    ("congest.net.max_edge_load", "words"); ("domtree.dist_packing.s", "s");
    ("domtree.dist_packing.self_s", "s"); ("domtree.dist_packing.minor_words_per_msg", "words");
    ("domtree.dist_packing.promoted_words", "words"); ("domtree.tree_extract.s", "s");
    ("domtree.packing.verify_s", "s"); ("spantree.dist_packing.s", "s");
    ("spantree.dist_packing.self_s", "s");
    ("spantree.dist_packing.minor_words_per_msg", "words");
    ("spantree.spacking.verify_s", "s"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.promoted_ratio", "ratio");
    ("serve.req_p90_ms", "ms"); ("serve.worker.cold_ms", "ms"); ("serve.worker.hit_ms", "ms");
    ("serve.worker.memo_hit_ratio", "ratio"); ("serve.outside_worker_ms", "ms");
    ("serve.journal.fsync_us_p50", "us"); ("serve.shed", "count");
    ("packing_size", "weight"); ("trace_overhead_pct", "%"); ("unattributed_s", "s");
  ]

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.Stats.name = name) measured with
      | Some x ->
        assert (x.Stats.unit_ = unit_);
        x
      | None -> Stats.m name unit_ 0.)
    per_layer

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--decompose PATH] [--smoke] [--spec BASE] [--break digest|size|reply|drain]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let decompose = ref "_build/default/bin/decompose.exe" and smoke = ref false in
  let spec_override = ref "" and break_ = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--decompose", Arg.Set_string decompose, "PATH to decompose.exe");
      ("--smoke", Arg.Set smoke, " seconds-long sizes (tests)");
      ("--spec", Arg.Set_string spec_override, "BASE replace a batch workload's generator spec (tests)");
      ("--break", Arg.Symbol ([ "digest"; "size"; "reply"; "drain" ], ( := ) break_),
       " drive one gate to failure (tests)");
    ]
    (fun _ -> usage ())
    "bench.exe";
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced = !trace = 1 in
  let outcome =
    try
      match
        List.find_opt (fun w -> w.Batch.name = !workload) (batch_workloads ~smoke:!smoke)
      with
      | Some w ->
        let w = if !spec_override = "" then w else { w with Batch.spec = spec !spec_override } in
        let w = if !break_ = "size" then { w with Batch.floor_size = infinity } else w in
        Batch.run ~perturb_digest:(!break_ = "digest") w ~seed:!seed ~seconds:!seconds ~traced
      | None when !workload = "serve-cold" ->
        Serve_load.run ?break_:(if !break_ = "" then None else Some !break_)
          ~exe:!decompose ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~traced ()
      | None -> usage ()
    with
    | Batch.Degenerate why ->
      Printf.eprintf "degenerate input, refusing to time it: %s\n%!" why;
      exit 2
    | Serve_load.Failed_drain why ->
      Printf.eprintf "serve-cold: drain handshake failed: %s\n%!" why;
      exit 1
  in
  let metrics =
    if traced then complete outcome.Batch.layer else outcome.Batch.e2e
  in
  Stats.print_result ~workload:!workload ~seed:!seed ~table:outcome.Batch.table
    ~correct:(outcome.Batch.failed = 0) ~attempted:outcome.Batch.attempted
    ~failed:outcome.Batch.failed metrics;
  if outcome.Batch.failed > 0 then exit 1
