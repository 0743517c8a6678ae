(* In-memory spans recorded by the benchmark around its calls into each
   layer. A span has a name, a start and end time (ns), the span that
   was open when it started (its parent), and the op it belongs to.
   Nothing is written until the run ends. *)

type span = {
  id : int;
  name : string;
  start_ns : float;
  end_ns : float;
  parent : int;  (** [-1] for a root span *)
  op : int;
}

type t = {
  now : unit -> float;
  mutable done_ : span list;
  mutable stack : int list;
  mutable next : int;
}

let create ~now = { now; done_ = []; stack = []; next = 0 }

(* Spans must nest: [with_span] opens, runs [f], closes; a child's id is
   allocated when it closes, so parents are tracked by a provisional
   stack of reserved ids. *)
let with_span t ?(op = -1) name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = t.now () in
  let close () =
    let end_ns = t.now () in
    t.stack <- List.tl t.stack;
    t.done_ <- { id; name; start_ns; end_ns; parent; op } :: t.done_
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Optional recorder: the untraced path passes [None] and pays one match. *)
let span tr ?op name f = match tr with None -> f () | Some t -> with_span t ?op name f

let spans t = Array.of_list (List.rev t.done_)
let duration s = s.end_ns -. s.start_ns

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: a span's duration minus the part of its interval that its
   children cover. Returned by span id. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let self = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      Hashtbl.replace self s.id
        (duration s -. covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans;
  self

let named spans name = List.filter (fun s -> s.name = name) (Array.to_list spans)

(* Chrome trace_event JSON ("X" complete events, microseconds). *)
let to_chrome_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        s.name (s.start_ns /. 1e3) (duration s /. 1e3) s.id s.parent s.op)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
