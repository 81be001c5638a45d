(* The serial executable spec — an Ernst-style twin of the server.

   The server promises snapshot isolation over a single commit order:
   every read it answers reflects exactly the first [seq] committed
   writes, fully settled.  The checker takes that promise literally: it
   replays the commit log, prefix by prefix, through a {e fresh} engine
   (no faults, no store) and re-evaluates every observed read against the
   twin at its snapshot's prefix.  Any difference is a consistency
   violation — a read that saw a state no serial execution could
   produce.

   Settle placement is the one freedom: the server settles once per
   batch, the twin settles at each checked prefix.  Those agree because
   every observed [seq] is a batch boundary (snapshots are only published
   there) and a settle's outcome depends only on the current tree, not on
   how many settles produced it.

   Remote entries are outside the twin (it mounts nothing), so link-set
   comparisons drop remote rows; the harness likewise keeps remote-facing
   reads out of the observation set. *)

module Fs = Hac_vfs.Fs
module Hac = Hac_core.Hac
module Link = Hac_core.Link

type observation = { ob_read : Msg.read; ob_seq : int; ob_reply : Msg.reply }

let observe (tk : Msg.ticket) =
  match (tk.op, tk.outcome) with
  | Msg.R r, Some (Msg.Replied { reply; seq; _ }) ->
      Some { ob_read = r; ob_seq = seq; ob_reply = reply }
  | _ -> None

let is_remote target = String.length target > 2 && String.contains target ':'

(* Normalize a reply for comparison: drop remote link rows (the twin has
   no mounts) and their stale flags with them. *)
let local_reply = function
  | Msg.Linkset rows ->
      Msg.Linkset
        (List.filter (fun (r : Msg.linkrow) -> not (is_remote r.l_target)) rows)
  | r -> r

(* Evaluate a read on the twin with exactly the snapshot's semantics:
   regular files only (lstat, not follow), listings without [/.hac],
   links only for semantic directories, every failure the same
   normalized [Nack]. *)
let eval_read twin r =
  let fs = Hac.fs twin in
  match r with
  | Msg.Read p -> (
      match Fs.lstat fs p with
      | { Fs.st_kind = Hac_vfs.Event.File; _ } -> Msg.Data (Fs.read_file fs p)
      | _ -> Msg.Nack "unreadable"
      | exception _ -> Msg.Nack "unreadable")
  | Msg.Readdir p -> (
      match Hac.readdir twin p with
      | entries ->
          Msg.Entries (if p = "/" then List.filter (fun n -> n <> ".hac") entries else entries)
      | exception _ -> Msg.Nack "unreadable")
  | Msg.Links p -> (
      if not (try Hac.is_semantic twin p with _ -> false) then Msg.Nack "unreadable"
      else
        Msg.Linkset
          (List.filter_map
             (fun (l : Link.t) ->
               match l.target with
               | Link.Remote _ -> None
               | Link.Local _ ->
                   Some
                     {
                       Msg.l_name = l.name;
                       l_target = Link.target_key l.target;
                       l_cls = Link.cls_name l.cls;
                       l_stale = false;
                     })
             (Hac.links twin p)))

let render_reply = function
  | Msg.Data s -> Printf.sprintf "data(%d bytes)" (String.length s)
  | Msg.Entries es -> "entries[" ^ String.concat "," es ^ "]"
  | Msg.Linkset rows ->
      "links["
      ^ String.concat ","
          (List.map (fun (r : Msg.linkrow) -> r.l_name ^ "->" ^ r.l_target) rows)
      ^ "]"
  | Msg.Done -> "done"
  | Msg.Nack m -> "nack(" ^ m ^ ")"

let reply_equal a b =
  match (a, b) with
  | Msg.Data x, Msg.Data y -> x = y
  | Msg.Entries x, Msg.Entries y -> List.sort compare x = List.sort compare y
  | Msg.Linkset x, Msg.Linkset y ->
      let key (r : Msg.linkrow) = (r.l_name, r.l_target, r.l_cls) in
      List.sort compare (List.map key x) = List.sort compare (List.map key y)
  | Msg.Nack _, Msg.Nack _ -> true
  | Msg.Done, Msg.Done -> true
  | _ -> false

(* Check every observation against the twin at its prefix.  [build] makes
   the fresh twin (same initial corpus and semantic directories as the
   server's engine, no mounts, no store); [writes] is the commit log in
   commit order.  Returns violation descriptions, empty when every read
   is prefix-consistent.  With [flight], each violation is recorded as a
   transition and the run-up is frozen to a dump (a spec violation is a
   breach — the recent history is exactly what debugging needs). *)
let check ?flight ~build ~writes ~observations () =
  let obs = List.sort (fun a b -> compare a.ob_seq b.ob_seq) observations in
  let writes = Array.of_list writes in
  let twin = build () in
  Hac.settle twin;
  let cur = ref 0 in
  let violations = ref [] in
  List.iter
    (fun ob ->
      if ob.ob_seq > !cur then begin
        while !cur < ob.ob_seq && !cur < Array.length writes do
          (try Server.apply_write twin writes.(!cur)
           with _ -> () (* the server committed it, so this cannot fail; belt and braces *));
          incr cur
        done;
        Hac.settle twin
      end;
      if ob.ob_seq > Array.length writes then
        violations :=
          Printf.sprintf "read at seq %d beyond commit log (%d commits)" ob.ob_seq
            (Array.length writes)
          :: !violations
      else
        let expected = eval_read twin ob.ob_read in
        let got = local_reply ob.ob_reply in
        if not (reply_equal expected got) then
          violations :=
            Printf.sprintf "%s @seq %d: served %s, serial spec %s"
              (Msg.describe (Msg.R ob.ob_read))
              ob.ob_seq (render_reply got) (render_reply expected)
          :: !violations)
    obs;
  let violations = List.rev !violations in
  (match flight with
  | Some fl when violations <> [] ->
      List.iter
        (fun v ->
          Hac_obs.Flight.transition fl ~subsystem:"spec" ~from_:"consistent"
            ~to_:"violated" ~reason:v)
        violations;
      ignore
        (Hac_obs.Flight.breach fl
           ~reason:(Printf.sprintf "%d spec violations" (List.length violations)))
  | _ -> ());
  violations
