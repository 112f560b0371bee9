(* The three batch workloads: whole CLI pipelines, from generator spec
   to verified packing, driven through the library's public entry
   points exactly as `decompose vertex|edge --distributed` drives them. *)

module Net = Congest.Net

type kind =
  | Vertex of int option
      (** Theorem 1.1 on V-CONGEST; [Some k] supplies k (no oracle) *)
  | Edge  (** Theorem 1.3 on E-CONGEST *)

type workload = {
  name : string;
  kind : kind;
  pool : int;  (** graphs per run, each derived from the run seed *)
  spec : int -> string;  (** graph seed -> generator spec *)
  floor_conn : int;  (** input guard: k (vertex) or λ (edge) floor *)
  floor_size : float;  (** correctness gate: packing_size floor *)
}

exception Degenerate of string

let degenerate fmt = Printf.ksprintf (fun s -> raise (Degenerate s)) fmt

(* ---- input guard (runs before any timing) ---- *)

(* [random:n=..,k=..] is Harary H_{k,n} plus random chords; a graph
   containing every Harary edge is k-vertex-connected (and hence
   k-edge-connected), which certifies the floor without an O(k n)-flow
   oracle call. *)
let harary_certificate spec g =
  match Graphs.Source.parse_kv spec with
  | "random", kvs -> (
    match List.assoc_opt "k" kvs with
    | Some k
      when Graphs.Graph.fold_edges
             (fun ok u v -> ok && Graphs.Graph.mem_edge g u v)
             true
             (Graphs.Gen.harary ~k ~n:(Graphs.Graph.n g)) ->
      Some k
    | _ -> None)
  | _ -> None

(* The guard proper: the graph is connected, and its k/λ is provably at
   least the floor. A Harary certificate proves it outright; otherwise a
   workload that runs an exact oracle proves it with the warm-up solve
   (checked in [run]), and one that is handed k cannot prove it at all. *)
let guard w spec g =
  if not (Graphs.Traversal.is_connected g) then
    degenerate "%s: %s is disconnected" w.name spec;
  let certified =
    match harary_certificate spec g with Some k -> k >= w.floor_conn | None -> false
  in
  match w.kind with
  | Vertex (Some _) when not certified ->
    degenerate "%s: nothing certifies k >= %d for %s, and no oracle runs" w.name
      w.floor_conn spec
  | _ -> ()

(* ---- one solve ---- *)

let model w = match w.kind with Vertex _ -> Congest.Model.V_congest | Edge -> E_congest

type solve = {
  total : Probe.cost;
  conn : int;  (** k or λ the protocol ran with *)
  size : float;
  violations : int;
  tel : Net.telemetry;
  digest : int;
  layers : Probe.ledger;
  round_s : float;  (** Σ congest.round spans (traced solves only) *)
  budget_words : int;
}

(* [span_capacity] must hold every round of the solve (the recorder is
   a ring); [solve] fails loudly if any span was overwritten. *)
let solve w ~traced ~span_capacity ~proto_seed spec =
  (* Each solve starts from a compacted heap, as a fresh CLI process
     would, instead of inheriting the previous solve's major heap. *)
  Gc.compact ();
  let l = Probe.ledger ~traced in
  let call name f = Probe.call l name f in
  let (conn, size, violations, net, obs), total =
    Probe.measure (fun () ->
        let g = call "graphs.source" (fun () -> Graphs.Source.gen_graph spec) in
        let conn =
          match w.kind with
          | Vertex (Some k) -> k
          | Vertex None ->
            call "graphs.connectivity.vc" (fun () ->
                Graphs.Connectivity.vertex_connectivity g)
          | Edge ->
            call "graphs.connectivity.ec" (fun () ->
                Graphs.Connectivity.edge_connectivity g)
        in
        let net =
          call "congest.net.create" (fun () -> Net.create ~domains:1 (model w) g)
        in
        let obs =
          if not traced then None
          else begin
            let spans = Obs.Span.enabled ~capacity:span_capacity () in
            let metrics = Obs.Metrics.create () in
            Net.attach_obs net (Net.make_obs ~spans metrics);
            Some (spans, metrics)
          end
        in
        let size, violations =
          match w.kind with
          | Vertex _ ->
            let res =
              call "domtree.dist_packing" (fun () ->
                  Domtree.Dist_packing.pack ~seed:proto_seed net ~k:(max 1 conn))
            in
            let p =
              call "domtree.tree_extract" (fun () ->
                  Domtree.Tree_extract.of_cds_packing res)
            in
            let vs =
              call "domtree.packing.verify" (fun () -> Domtree.Packing.verify p)
            in
            (Domtree.Packing.size p, List.length vs)
          | Edge ->
            let r =
              call "spantree.dist_packing" (fun () ->
                  Spantree.Dist_packing.run_sampled ~seed:proto_seed net
                    ~lambda:(max 1 conn))
            in
            let p = r.Spantree.Dist_packing.packing in
            let vs =
              call "spantree.spacking.verify" (fun () ->
                  Spantree.Spacking.verify ~tolerance:1e-6 p)
            in
            (Spantree.Spacking.size p, List.length vs)
        in
        (conn, size, violations, net, obs))
  in
  let tel = Net.telemetry net in
  let round_s, budget_words =
    match obs with
    | None -> (0., 0)
    | Some (spans, metrics) ->
      Net.detach_obs net;
      if Obs.Span.dropped spans > 0 then
        failwith "congest.round span ring overflowed; raise span_capacity";
      let us =
        List.fold_left
          (fun acc sp ->
            if sp.Obs.Span.sp_name = "congest.round" then acc + sp.Obs.Span.sp_dur_us
            else acc)
          0 (Obs.Span.spans spans)
      in
      let snap = Obs.Metrics.snapshot metrics in
      ( float_of_int us /. 1e6,
        Option.value ~default:0
          (Obs.Metrics.find_counter snap "congest_budget_words_total") )
  in
  { total; conn; size; violations; tel; digest = Net.run_digest tel; layers = l;
    round_s; budget_words }

(* ---- gates ---- *)

(* A solve passes when its packing verifies with no violation, meets the
   size floor, ran on k/λ at or above the floor, and replays the digest
   of the warm-up solve of the same graph and seed. *)
let failures w ~ref_digest s =
  List.filter_map
    (fun (bad, why) -> if bad then Some why else None)
    [
      (s.violations > 0, Printf.sprintf "%d verifier violations" s.violations);
      (s.size < w.floor_size -. 1e-9,
       Printf.sprintf "packing_size %.3f < floor %.3f" s.size w.floor_size);
      (s.conn < w.floor_conn,
       Printf.sprintf "k/lambda %d < floor %d" s.conn w.floor_conn);
      (s.digest <> ref_digest,
       Printf.sprintf "run digest %x <> warm-up digest %x" s.digest ref_digest);
    ]

(* ---- one run ---- *)

type outcome = {
  table : (string * string * string) list;  (** label, value, unit *)
  e2e : Stats.metric list;
  layer : Stats.metric list;
  attempted : int;
  failed : int;
}

(* Set-up passes over the pool; [setup_s] is the median of all of them.
   Set-up takes a millisecond or less, so it takes many samples to keep
   its median steady. *)
let setup_reps = 25

(* The run seed fixes every input: [pool] (graph spec, protocol seed)
   pairs. Set-up is what a caller pays before solving: generate the
   graph, guard it and build its net; it is repeated in [setup_reps]
   passes over the pool and reported as a median. One untraced warm-up solve per
   graph then completes the guard (exact k/λ against the floor) and pins
   the reference digest, all before the clock starts. The warm-up is a
   solve like any other, so it is not counted as set-up: a change that
   made set-up slower would hide inside it. The timed loop cycles over
   the pool until [seconds] have passed and every graph has a sample;
   with [traced], odd cycles are traced and even ones are not, so one
   run yields both the per-layer figures and the tracing overhead. *)
let run ?(perturb_digest = false) w ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let inputs =
    Array.init w.pool (fun _ ->
        let gseed = Random.State.bits rng in
        (w.spec gseed, Random.State.bits rng))
  in
  let attempted = ref 0 and failed = ref 0 in
  let check ~ref_digest spec s =
    incr attempted;
    match failures w ~ref_digest s with
    | [] -> ()
    | why ->
      incr failed;
      Printf.eprintf "%s: FAILED on %s: %s\n%!" w.name spec (String.concat "; " why)
  in
  let setup =
    List.concat
      (List.init setup_reps (fun _ ->
           Array.to_list
             (Array.map
                (fun (spec, _) ->
                  let t0 = Probe.now () in
                  let g = Graphs.Source.gen_graph spec in
                  guard w spec g;
                  ignore (Net.create ~domains:1 (model w) g);
                  Probe.now () -. t0)
                inputs)))
  in
  let refs =
    Array.mapi
      (fun i (spec, proto_seed) ->
        let s = solve w ~traced:false ~span_capacity:1 ~proto_seed spec in
        if s.conn < w.floor_conn then
          degenerate "%s: %s has k/lambda %d < floor %d" w.name spec s.conn
            w.floor_conn;
        check ~ref_digest:s.digest spec s;
        if perturb_digest && i = 0 then { s with digest = s.digest lxor 1 } else s)
      inputs
  in
  let plain = Array.make w.pool [] and traced_s = Array.make w.pool [] in
  let t_start = Probe.now () in
  let deadline = t_start +. seconds in
  let min_solves = (if traced then 2 else 1) * w.pool in
  let i = ref 0 in
  while Probe.now () < deadline || !i < min_solves do
    let gi = !i mod w.pool in
    let tr = traced && !i / w.pool mod 2 = 1 in
    let spec, proto_seed = inputs.(gi) in
    let r = refs.(gi) in
    let s =
      solve w ~traced:tr ~span_capacity:(r.tel.Net.t_rounds + 1) ~proto_seed spec
    in
    check ~ref_digest:r.digest spec s;
    if tr then traced_s.(gi) <- s :: traced_s.(gi) else plain.(gi) <- s :: plain.(gi);
    incr i
  done;
  let elapsed = Probe.now () -. t_start in
  (* per graph: the median over its solves; then the mean over graphs *)
  let agg by f =
    Stats.mean
      (Array.to_list (Array.map (fun ss -> Stats.median (List.map f ss)) by))
  in
  let total_s s = s.total.Probe.s in
  let solve_s = agg plain total_s in
  let all_plain = List.concat (Array.to_list plain) in
  let n_plain = List.length all_plain in
  let per_ref f = Stats.mean (Array.to_list (Array.map f refs)) in
  let rounds = per_ref (fun s -> float_of_int s.tel.Net.t_rounds) in
  let messages = per_ref (fun s -> float_of_int s.tel.Net.t_messages) in
  let size = per_ref (fun s -> s.size) in
  let rss = Probe.peak_rss_mb None in
  let setup_s = Stats.median setup in
  let fail_ratio = float_of_int !failed /. float_of_int !attempted in
  let e2e =
    Stats.
      [
        m "solve_s" "s" solve_s;
        m "solves_per_s" "1/s" (float_of_int n_plain /. elapsed);
        m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MB" rss;
      ]
  in
  let f = Printf.sprintf in
  let table =
    [
      ("solve_s (median, mean over graphs)", f "%.4f" solve_s, f "s  (n=%d over %d graphs)" n_plain w.pool);
      ("solve_s per graph", String.concat " "
         (Array.to_list (Array.map (fun ss -> f "%.3f" (Stats.median (List.map total_s ss))) plain)), "s");
      ("setup_s (median)", f "%.6f" setup_s, f "s  (generate, guard, net; %d reps)" (List.length setup));
      ("rounds", f "%.1f" rounds, "rounds/solve");
      ("messages", f "%.0f" messages, "messages/solve");
      ("packing_size", f "%.3f" size, f "tree weight (floor %.2f)" w.floor_size);
      ("fail_ratio", f "%.4f" fail_ratio, f "(%d/%d)" !failed !attempted);
      ("peak_rss_mb", f "%.1f" rss, "MB");
    ]
  in
  let layer =
    if not traced then []
    else begin
      let tr = traced_s in
      let cost name sel = agg tr (fun s -> sel (Probe.cost s.layers name)) in
      let secs name = cost name (fun c -> c.Probe.s) in
      let tel sel = agg tr (fun s -> float_of_int (sel s.tel)) in
      let proto =
        match w.kind with Vertex _ -> "domtree.dist_packing" | Edge -> "spantree.dist_packing"
      in
      let oracle_cost sel =
        agg tr (fun s ->
            sel (Probe.add (Probe.cost s.layers "graphs.connectivity.vc")
                   (Probe.cost s.layers "graphs.connectivity.ec")))
      in
      let self_s s = (Probe.cost s.layers proto).Probe.s -. s.round_s in
      let per_msg s x = x /. float_of_int (max 1 s.tel.Net.t_messages) in
      let only kind v = if kind then v else 0. in
      let is_v = match w.kind with Vertex _ -> true | Edge -> false in
      let traced_solve_s = agg tr total_s in
      Stats.
        [
          m "graphs.source.s" "s" (secs "graphs.source");
          m "graphs.connectivity.vc_s" "s" (secs "graphs.connectivity.vc");
          m "graphs.connectivity.ec_s" "s" (secs "graphs.connectivity.ec");
          m "graphs.connectivity.minor_words" "words" (oracle_cost (fun c -> c.Probe.minor_words));
          m "graphs.connectivity.promoted_words" "words" (oracle_cost (fun c -> c.Probe.promoted_words));
          m "congest.net.create_s" "s" (secs "congest.net.create");
          m "congest.net.round_s" "s" (agg tr (fun s -> s.round_s));
          m "congest.net.us_per_round" "us"
            (agg tr (fun s -> s.round_s *. 1e6 /. float_of_int (max 1 s.tel.Net.t_rounds)));
          m "congest.net.ns_per_message" "ns" (agg tr (fun s -> per_msg s (s.round_s *. 1e9)));
          m "congest.net.rounds" "count" (tel (fun t -> t.Net.t_rounds));
          m "congest.net.messages" "count" (tel (fun t -> t.Net.t_messages));
          m "congest.net.words" "count" (tel (fun t -> t.Net.t_words));
          m "congest.net.budget_util" "ratio"
            (agg tr (fun s ->
                 float_of_int s.tel.Net.t_words /. float_of_int (max 1 s.budget_words)));
          m "congest.net.max_node_load" "words" (tel (fun t -> t.Net.t_max_node_load));
          m "congest.net.max_edge_load" "words" (tel (fun t -> t.Net.t_max_edge_load));
          m "domtree.dist_packing.s" "s" (secs "domtree.dist_packing");
          m "domtree.dist_packing.self_s" "s" (only is_v (agg tr self_s));
          m "domtree.dist_packing.minor_words_per_msg" "words"
            (agg tr (fun s -> per_msg s (Probe.cost s.layers "domtree.dist_packing").Probe.minor_words));
          m "domtree.dist_packing.promoted_words" "words"
            (cost "domtree.dist_packing" (fun c -> c.Probe.promoted_words));
          m "domtree.tree_extract.s" "s" (secs "domtree.tree_extract");
          m "domtree.packing.verify_s" "s" (secs "domtree.packing.verify");
          m "spantree.dist_packing.s" "s" (secs "spantree.dist_packing");
          m "spantree.dist_packing.self_s" "s" (only (not is_v) (agg tr self_s));
          m "spantree.dist_packing.minor_words_per_msg" "words"
            (agg tr (fun s -> per_msg s (Probe.cost s.layers "spantree.dist_packing").Probe.minor_words));
          m "spantree.spacking.verify_s" "s" (secs "spantree.spacking.verify");
          m "gc.minor_collections" "count" (agg tr (fun s -> float_of_int s.total.Probe.minor_collections));
          m "gc.major_collections" "count" (agg tr (fun s -> float_of_int s.total.Probe.major_collections));
          m "gc.promoted_ratio" "ratio"
            (agg tr (fun s -> s.total.Probe.promoted_words /. s.total.Probe.minor_words));
          m "packing_size" "weight" size;
          m "trace_overhead_pct" "%" ((traced_solve_s -. solve_s) /. solve_s *. 100.);
          m "unattributed_s" "s"
            (agg tr (fun s ->
                 s.total.Probe.s
                 -. List.fold_left (fun acc (_, c) -> acc +. c.Probe.s) 0. s.layers.Probe.entries));
        ]
    end
  in
  { table; e2e; layer; attempted = !attempted; failed = !failed }
