(* The serve-cold workload: a real `decompose serve` daemon in its own
   process, driven by a closed loop of one client thread over two
   connections. The traced run replays the identical request sequence
   through [Serve.Worker.handle] in this process to split each
   request's latency into worker time and everything outside it. *)

module P = Serve.Protocol
module Client = Serve.Server.Client

exception Failed_drain of string

(* ---- the request stream (a pure function of the run seed) ---- *)

(* Fixed graph sizes, seed-derived graph instances: the pool's cost mix
   is the same on every seed, its graphs are not. *)
let pool_sizes ~smoke =
  if smoke then [| 48; 64 |] else [| 128; 144; 160; 176; 192; 208; 224; 256 |]

let stream ~smoke ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash "serve-cold" |] in
  let specs =
    Array.map
      (fun n ->
        Printf.sprintf "random:n=%d,k=8,extra=%d,seed=%d" n n (Random.State.bits rng))
      (pool_sizes ~smoke)
  in
  let issued = ref [||] in
  let fresh () =
    {
      (P.default_decompose ~gen:specs.(Random.State.int rng (Array.length specs))) with
      P.seed = Random.State.bits rng;
      k = (if Random.State.bool rng then 0 else 8);
    }
  in
  fun () ->
    let u = Random.State.float rng 1. in
    if u < 0.25 && Array.length !issued > 0 then
      (* an exact repeat of an earlier request: a memo hit *)
      (!issued.(Random.State.int rng (Array.length !issued)), true)
    else begin
      let r = if u < 0.45 then P.Verify (fresh ()) else P.Decompose (fresh ()) in
      issued := Array.append !issued [| r |];
      (r, false)
    end

(* A reply passes when it is a fresh, verified, undegraded result. *)
let reply_ok = function
  | Ok (P.Result r) -> r.P.verified && (not r.P.stale) && not r.P.degraded
  | Ok _ | Error _ -> false

(* ---- the daemon process ---- *)

type daemon = { pid : int; socket : string }

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Scratch lives under the working directory (the checkout), on a
   relative path so the socket name stays short. *)
let scratch_root = ".perfbench-run"

let fresh_dir tag =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  let d = Printf.sprintf "%s/%d-%s" scratch_root (Unix.getpid ()) tag in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* The daemon's default deadline is far above any request's cost, so a
   slow host can never turn a reply stale or degraded. *)
let spawn ~exe dir =
  let socket = dir ^ "/d.sock" in
  let log = Unix.openfile (dir ^ "/daemon.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--state-dir"; dir ^ "/state";
         "--deadline-ms"; "600000" |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; socket }

let signal_kill d = try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()

let kill d =
  signal_kill d;
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* Boot time: from spawn until the first Health reply. *)
let boot ~exe dir =
  let t0 = Probe.now () in
  let d = spawn ~exe dir in
  let rec wait tries =
    match Client.connect ~timeout_s:30. d.socket with
    | cl ->
      let r = Client.request cl P.Health in
      Client.close cl;
      (match r with
      | Ok (P.Health_report _) -> ()
      | _ -> kill d; failwith "daemon answered Health with something else")
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during boot"
      | exception Unix.Unix_error _ -> failwith "daemon vanished during boot");
      if tries > 30_000 then (kill d; failwith "daemon did not come up in 30 s");
      Unix.sleepf 0.001;
      wait (tries + 1)
  in
  wait 0;
  (d, Probe.now () -. t0)

(* The Drain handshake: a Drained reply, then a clean exit. *)
let drain d =
  let r =
    match Client.connect ~timeout_s:60. d.socket with
    | cl ->
      let r =
        try Client.request cl P.Drain
        with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      in
      Client.close cl;
      r
    | exception (Unix.Unix_error _ | Sys_error _) -> Error "cannot connect"
  in
  let _, status = Unix.waitpid [] d.pid in
  match (r, status) with
  | Ok (P.Drained { served }), Unix.WEXITED 0 -> served
  | Ok (P.Drained _), _ -> raise (Failed_drain "daemon exited non-zero after Drained")
  | _ -> raise (Failed_drain "no Drained reply")

let scrape d =
  let cl = Client.connect ~timeout_s:60. d.socket in
  let r = Client.request cl P.Stats in
  Client.close cl;
  match r with
  | Ok (P.Stats_report s) -> s.P.s_metrics
  | _ -> failwith "Stats scrape failed"

(* ---- the closed loop ---- *)

type sample = { req : P.request; repeat : bool; latency_s : float; ok : bool }

(* Two connections, each with one request in flight. The daemon serves
   its queue in arrival order, so the oldest request completes first:
   waiting on the connections alternately times every reply as it
   arrives. *)
let closed_loop d ~next ~seconds =
  let conns = Array.init 2 (fun _ -> Client.connect ~timeout_s:120. d.socket) in
  let inflight =
    Array.map
      (fun cl ->
        let r = next () in
        Client.send cl (fst r);
        (r, Probe.now ()))
      conns
  in
  let t_start = Probe.now () in
  let deadline = t_start +. seconds in
  let samples = ref [] and pending = ref 2 and c = ref 0 in
  while !pending > 0 do
    (match inflight.(!c) with
    | _, t when Float.is_nan t -> ()
    | ((req, repeat) as r0), t_sent ->
      let resp = Client.recv conns.(!c) in
      let t = Probe.now () in
      samples := { req; repeat; latency_s = t -. t_sent; ok = reply_ok resp } :: !samples;
      if t < deadline then begin
        let r = next () in
        Client.send conns.(!c) (fst r);
        inflight.(!c) <- (r, Probe.now ())
      end
      else begin
        inflight.(!c) <- (r0, nan);
        decr pending
      end);
    c := 1 - !c
  done;
  let elapsed = Probe.now () -. t_start in
  Array.iter Client.close conns;
  (List.rev !samples, elapsed)

(* ---- in-process replay through the worker ---- *)

let worker_config =
  { Serve.Worker.default_config with Serve.Worker.default_deadline_ms = 600_000 }

(* [replay ~traced reqs] -> per-request handle cost, plus the worker's
   metrics registry (traced only). *)
let replay ~traced reqs =
  let metrics = if traced then Some (Obs.Metrics.create ()) else None in
  let w = Serve.Worker.create ?metrics worker_config in
  let costs =
    List.map
      (fun req ->
        let handle () = Serve.Worker.handle w ~enqueued_at_ms:(Serve.Worker.now_ms ()) req in
        if traced then snd (Probe.measure handle)
        else begin
          let t0 = Probe.now () in
          ignore (handle ());
          { Probe.zero with Probe.s = Probe.now () -. t0 }
        end)
      reqs
  in
  (costs, metrics)

(* ---- one run ---- *)

(* Set-up boots the daemon [boots] times and reports the median boot
   time; every boot but the last is drained straight away, so each run
   exercises the Drain handshake several times. The last daemon serves
   the closed loop, then answers one Stats scrape, reports its VmHWM and
   drains. The traced run gives the loop a third of [seconds] and spends
   the rest replaying the same requests through the worker, bare and
   traced. *)
(* [break_] drives a gate to failure for the smoke test: ["reply"] makes
   the first request one no daemon can answer with a verified packing,
   ["drain"] kills the daemon before its drain. *)
let run ?break_ ~exe ~smoke ~seed ~seconds ~traced () =
  let boots = 9 in
  let dirs = List.init boots (fun i -> fresh_dir (string_of_int i)) in
  (* the one daemon not yet reaped, if any *)
  let live = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter kill !live;
      List.iter rm_rf dirs;
      (try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()))
    (fun () ->
      let boot_times =
        List.mapi
          (fun i dir ->
            let d, t = boot ~exe dir in
            live := Some d;
            if i < boots - 1 then begin
              live := None;
              ignore (drain d)
            end;
            t)
          dirs
      in
      let d = Option.get !live in
      let next =
        let stream = stream ~smoke ~seed in
        if break_ <> Some "reply" then stream
        else begin
          let first = ref true in
          fun () ->
            if !first then begin
              first := false;
              (P.Decompose (P.default_decompose ~gen:"nosuchgen:n=8"), false)
            end
            else stream ()
        end
      in
      let loop_s = if traced then seconds /. 3. else seconds in
      let samples, elapsed = closed_loop d ~next ~seconds:loop_s in
      let snap = scrape d in
      let rss = Probe.peak_rss_mb (Some d.pid) in
      if break_ = Some "drain" then signal_kill d;
      live := None;
      let served = drain d in
      let n = List.length samples in
      let failed = List.length (List.filter (fun s -> not s.ok) samples) in
      let lat = List.map (fun s -> s.latency_s) samples in
      let p50 = Stats.median lat and p90 = Stats.quantile 0.9 lat in
      let setup_s = Stats.median boot_times in
      let count p = List.length (List.filter p samples) in
      let is_verify s = match s.req with P.Verify _ -> true | _ -> false in
      let f = Printf.sprintf in
      let table =
        [
          ("req_p50_ms", f "%.3f" (p50 *. 1e3), f "ms  (n=%d)" n);
          ("req_p90_ms", f "%.3f" (p90 *. 1e3), f "ms  (%d beyond)" (n - int_of_float (0.9 *. float_of_int n)));
          ("req_per_s", f "%.2f" (float_of_int n /. elapsed), "1/s  (closed loop, 2 connections)");
          ("request mix", f "%d/%d/%d" (count (fun s -> not s.repeat && not (is_verify s)))
             (count (fun s -> s.repeat)) (count (fun s -> (not s.repeat) && is_verify s)),
           "cold decompose / exact repeat / verify");
          ("setup_s (median of boots)", f "%.4f" setup_s, f "s  (%d boots)" boots);
          ("fail_ratio", f "%.4f" (float_of_int failed /. float_of_int n), f "(%d/%d)" failed n);
          ("peak_rss_mb (daemon)", f "%.1f" rss, "MB");
          ("drained", string_of_int served, "requests served");
        ]
      in
      let e2e =
        Stats.
          [
            m "solve_s" "s" p50;
            m "solves_per_s" "1/s" (float_of_int n /. elapsed);
            m "setup_s" "s" setup_s;
            m "peak_rss_mb" "MB" rss;
          ]
      in
      let layer =
        if not traced then []
        else begin
          let reqs = List.map (fun s -> s.req) samples in
          let bare, _ = replay ~traced:false reqs in
          let costs, metrics = replay ~traced:true reqs in
          let wsnap = Obs.Metrics.snapshot (Option.get metrics) in
          let step name =
            Option.value ~default:0
              (Obs.Metrics.find_counter wsnap
                 (Obs.Metrics.labeled "serve_degrade_steps_total" [ ("step", name) ]))
          in
          let hits = step "memo_hit" and computes = step "compute" in
          let pick p xs = List.filteri (fun i _ -> p (List.nth samples i)) xs in
          let secs cs = List.map (fun c -> c.Probe.s) cs in
          let handle_p50 = Stats.median (secs bare) in
          let outside = List.map2 (fun s c -> s.latency_s -. c.Probe.s) samples bare in
          let fsync_p50 =
            match Obs.Metrics.find_hist snap "serve_journal_fsync_us" with
            | Some h when h.Obs.Metrics.h_count > 0 ->
              float_of_int (Obs.Metrics.quantile h 0.5)
            | _ -> 0.
          in
          let per_req sel = Stats.mean (List.map sel costs) in
          Stats.
            [
              m "serve.req_p90_ms" "ms" (1e3 *. p90);
              m "serve.worker.cold_ms" "ms" (1e3 *. median (secs (pick (fun s -> not s.repeat) costs)));
              m "serve.worker.hit_ms" "ms" (1e3 *. median (secs (pick (fun s -> s.repeat) costs)));
              m "serve.worker.memo_hit_ratio" "ratio"
                (float_of_int hits /. float_of_int (max 1 (hits + computes)));
              m "serve.outside_worker_ms" "ms" (1e3 *. median outside);
              m "serve.journal.fsync_us_p50" "us" fsync_p50;
              m "serve.shed" "count"
                (float_of_int (Option.value ~default:0 (Obs.Metrics.find_counter snap "serve_shed_total")));
              m "gc.minor_collections" "count" (per_req (fun c -> float_of_int c.Probe.minor_collections));
              m "gc.major_collections" "count" (per_req (fun c -> float_of_int c.Probe.major_collections));
              m "gc.promoted_ratio" "ratio"
                (sum (List.map (fun c -> c.Probe.promoted_words) costs)
                 /. sum (List.map (fun c -> c.Probe.minor_words) costs));
              m "trace_overhead_pct" "%"
                ((median (secs costs) -. handle_p50) /. handle_p50 *. 100.);
              m "unattributed_s" "s" (p50 -. handle_p50 -. median outside);
            ]
        end
      in
      {
        Batch.table;
        e2e;
        layer;
        attempted = n + boots;
        failed;
      })
