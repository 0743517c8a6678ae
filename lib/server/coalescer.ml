type key = { priority : Protocol.priority; m : int; n : int }

type 'a group = {
  g_key : key;
  deadline_ns : int; (* first-arrival time + window; 0 = ready now *)
  mutable jobs_rev : 'a list;
  mutable count : int;
  seq : int; (* arrival order of the group, for stable dispatch order *)
}

type 'a t = {
  max_batch : int;
  window_ns : int;
  (* Open batchable groups by key; [order] keeps every pending group
     (batchable or not) in arrival order. Removal from [order] happens
     lazily at [ready]/[flush]. *)
  open_groups : (key, 'a group) Hashtbl.t;
  mutable order : 'a group list; (* reversed: most recent first *)
  mutable pending : int;
  mutable next_seq : int;
}

let m_batches = Xpose_obs.Metrics.(lazily counter "server.batches")
let m_batched = Xpose_obs.Metrics.(lazily counter "server.batched_jobs")

let create ?(max_batch = 8) ?(window_ns = 2_000_000) () =
  if max_batch < 1 then invalid_arg "Coalescer.create: max_batch must be >= 1";
  if window_ns < 0 then invalid_arg "Coalescer.create: window_ns must be >= 0";
  {
    max_batch;
    window_ns;
    open_groups = Hashtbl.create 16;
    order = [];
    pending = 0;
    next_seq = 0;
  }

let new_group t ~key ~deadline_ns job =
  let g =
    {
      g_key = key;
      deadline_ns;
      jobs_rev = [ job ];
      count = 1;
      seq = t.next_seq;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.order <- g :: t.order;
  g

let add t ~now_ns ~batchable ~key job =
  t.pending <- t.pending + 1;
  if not batchable then ignore (new_group t ~key ~deadline_ns:0 job)
  else
    match Hashtbl.find_opt t.open_groups key with
    | Some g ->
        g.jobs_rev <- job :: g.jobs_rev;
        g.count <- g.count + 1;
        (* A full group is closed to further joins; it is picked up by
           the next [ready] call. *)
        if g.count >= t.max_batch then Hashtbl.remove t.open_groups key
    | None ->
        let g = new_group t ~key ~deadline_ns:(now_ns + t.window_ns) job in
        if t.max_batch = 1 then () else Hashtbl.add t.open_groups key g

let priority_rank = function
  | Protocol.High -> 0
  | Protocol.Normal -> 1
  | Protocol.Low -> 2

let take t ~dispatchable =
  let gone, kept = List.partition dispatchable t.order in
  t.order <- kept;
  List.iter
    (fun g ->
      (match Hashtbl.find_opt t.open_groups g.g_key with
      | Some g' when g' == g -> Hashtbl.remove t.open_groups g.g_key
      | _ -> ());
      t.pending <- t.pending - g.count)
    gone;
  let batches =
    List.sort
      (fun a b ->
        match
          compare (priority_rank a.g_key.priority) (priority_rank b.g_key.priority)
        with
        | 0 -> compare a.seq b.seq
        | c -> c)
      gone
  in
  (match batches with
  | [] -> ()
  | _ ->
      Xpose_obs.Metrics.incr ~by:(List.length batches) (m_batches ());
      Xpose_obs.Metrics.incr
        ~by:(List.fold_left (fun acc g -> acc + g.count) 0 batches)
        (m_batched ()));
  List.map (fun g -> (g.g_key, List.rev g.jobs_rev)) batches

let ready t ~now_ns =
  take t ~dispatchable:(fun g ->
      g.count >= t.max_batch || g.deadline_ns <= now_ns)

let flush t = take t ~dispatchable:(fun _ -> true)

let next_deadline_ns t =
  List.fold_left
    (fun acc g ->
      match acc with
      | Some d when d <= g.deadline_ns -> acc
      | _ -> Some g.deadline_ns)
    None t.order

let pending t = t.pending
