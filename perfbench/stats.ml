(* Order statistics over float samples, and the metric table every run
   prints: a human-readable block followed by the one-line JSON result. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile of a handful of samples is still a smooth function of
   them rather than a jump between neighbours. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float (Float.round (floor pos)) in
    let frac = pos -. floor pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs

(* ---- reporting ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Full precision: a rounded time could read identically across runs. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_float: non-finite metric value"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [table] lines go first (for people); the last stdout line is the
   machine-readable result. *)
let print_result ~workload ~seed ~table ~correct ~attempted ~failed metrics =
  Printf.printf "workload %s  seed %d\n" workload seed;
  List.iter
    (fun (label, value, unit_) ->
      Printf.printf "  %-36s %14s %s\n" label value unit_)
    table;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
