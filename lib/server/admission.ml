type tenant = { name : string; quota_bytes : int; window_bytes : int }

type t = {
  budget : int;
  default_quota : int;
  default_window : int;
  tenants : (string, tenant) Hashtbl.t;
  mu : Mutex.t;
  mutable in_flight : int;
}

type route = Fused | Ooc of { window_bytes : int }
type decision = Admit of route | Reject of Protocol.reject_reason

let m_fused = Xpose_obs.Metrics.(lazily counter "server.admit.fused")
let m_ooc = Xpose_obs.Metrics.(lazily counter "server.admit.ooc")
let m_rejected = Xpose_obs.Metrics.(lazily counter "server.admit.rejected")
let g_inflight = Xpose_obs.Metrics.(lazily gauge "server.inflight_bytes")

let create ?(budget_bytes = 1024 * 1024 * 1024)
    ?(default_quota_bytes = 16 * 1024 * 1024)
    ?(default_window_bytes = 4 * 1024 * 1024) ?(tenants = []) () =
  if budget_bytes < 1 then
    invalid_arg "Admission.create: budget_bytes must be >= 1";
  if default_quota_bytes < 1 then
    invalid_arg "Admission.create: default_quota_bytes must be >= 1";
  if default_window_bytes < 8 then
    invalid_arg "Admission.create: default_window_bytes must be >= 8";
  let table = Hashtbl.create 16 in
  List.iter
    (fun tn ->
      if tn.quota_bytes < 1 || tn.window_bytes < 8 then
        invalid_arg
          (Printf.sprintf "Admission.create: tenant %S has non-positive limits"
             tn.name);
      Hashtbl.replace table tn.name tn)
    tenants;
  {
    budget = budget_bytes;
    default_quota = default_quota_bytes;
    default_window = default_window_bytes;
    tenants = table;
    mu = Mutex.create ();
    in_flight = 0;
  }

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None ->
      { name; quota_bytes = t.default_quota; window_bytes = t.default_window }

let admit t ~tenant ~bytes =
  let tn = tenant_of t tenant in
  Mutex.lock t.mu;
  let decision =
    if t.in_flight + bytes > t.budget then Reject Protocol.Budget_exhausted
    else begin
      t.in_flight <- t.in_flight + bytes;
      if bytes <= tn.quota_bytes then Admit Fused
      else Admit (Ooc { window_bytes = tn.window_bytes })
    end
  in
  let now = t.in_flight in
  Mutex.unlock t.mu;
  Xpose_obs.Metrics.set_gauge (g_inflight ()) (float_of_int now);
  (match decision with
  | Admit Fused -> Xpose_obs.Metrics.incr (m_fused ())
  | Admit (Ooc _) -> Xpose_obs.Metrics.incr (m_ooc ())
  | Reject _ -> Xpose_obs.Metrics.incr (m_rejected ()));
  decision

let release t ~bytes =
  Mutex.lock t.mu;
  t.in_flight <- t.in_flight - bytes;
  assert (t.in_flight >= 0);
  let now = t.in_flight in
  Mutex.unlock t.mu;
  Xpose_obs.Metrics.set_gauge (g_inflight ()) (float_of_int now)

let in_flight_bytes t =
  Mutex.lock t.mu;
  let v = t.in_flight in
  Mutex.unlock t.mu;
  v

let budget_bytes t = t.budget
