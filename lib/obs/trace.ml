(* Nested spans over two clocks: the caller-supplied [now] (the virtual
   fault clock in this repo, so traces are deterministic under tests) and a
   [cpu] clock ([Sys.time] by default) for real profiling durations.  A
   global sequence number orders spans strictly even when neither clock
   advances between events.  Finished spans land in a bounded ring.

   Span ids come from a seeded splitmix64 stream ([Ctx.gen]), not a
   per-ring counter: ids stay unique across [clear] and across multiple
   rings, so flight-recorder dumps from successive runs don't collide.
   Each tracer defaults to a distinct seed (a process-wide instance
   counter), and [create ?seed] pins the stream for reproducibility. *)

type span = {
  id : int;
  parent : int option;
  depth : int;
  name : string;
  mutable attrs : (string * string) list;
  seq : int;
  vstart : float;
  mutable vstop : float;
  cstart : float;
  mutable cstop : float;
  mutable failed : bool;
}

type t = {
  now : unit -> float;
  cpu : unit -> float;
  on_close : (span -> unit) option;
  capacity : int;
  ring : span option array;
  mutable head : int; (* next write position *)
  mutable stored : int; (* live entries, <= capacity *)
  mutable dropped : int;
  mutable total : int; (* spans ever finished *)
  ids : Ctx.gen;
  mutable next_seq : int;
  mutable active : span list; (* innermost first *)
  mutable live : bool;
}

let instances = ref 0

let create ?(capacity = 512) ?(cpu = Sys.time) ?on_close ?seed ~now () =
  let capacity = max 1 capacity in
  let seed =
    match seed with
    | Some s -> s
    | None ->
        incr instances;
        0x5EED + (!instances * 0x1003F)
  in
  {
    now;
    cpu;
    on_close;
    capacity;
    ring = Array.make capacity None;
    head = 0;
    stored = 0;
    dropped = 0;
    total = 0;
    ids = Ctx.gen ~seed;
    next_seq = 0;
    active = [];
    live = false;
  }

let set_enabled t b = t.live <- b

let enabled t = t.live

let push t sp =
  if t.stored = t.capacity then t.dropped <- t.dropped + 1
  else t.stored <- t.stored + 1;
  t.ring.(t.head) <- Some sp;
  t.head <- (t.head + 1) mod t.capacity;
  t.total <- t.total + 1;
  match t.on_close with Some f -> f sp | None -> ()

let close t sp =
  sp.vstop <- t.now ();
  sp.cstop <- t.cpu ();
  (* Pop down to (and including) [sp]: if tracing was toggled mid-span the
     stack may hold children that never closed; discard them rather than
     leaving the stack wedged. *)
  let rec pop = function
    | [] -> []
    | s :: rest -> if s.id = sp.id then rest else pop rest
  in
  t.active <- pop t.active;
  push t sp

let with_span t ?(attrs = []) ~name f =
  if not t.live then f ()
  else begin
    let sp =
      {
        id = Ctx.fresh t.ids;
        parent = (match t.active with [] -> None | s :: _ -> Some s.id);
        depth = List.length t.active;
        name;
        attrs;
        seq = t.next_seq;
        vstart = t.now ();
        vstop = 0.0;
        cstart = t.cpu ();
        cstop = 0.0;
        failed = false;
      }
    in
    t.next_seq <- t.next_seq + 1;
    t.active <- sp :: t.active;
    match f () with
    | v ->
        close t sp;
        v
    | exception e ->
        sp.failed <- true;
        close t sp;
        raise e
  end

let set_attr t k v =
  match t.active with
  | [] -> ()
  | sp :: _ -> sp.attrs <- (k, v) :: List.remove_assoc k sp.attrs

let set_attr_int t k v = set_attr t k (string_of_int v)

let current t = match t.active with [] -> None | sp :: _ -> Some sp.id

let emit t ?parent ?(attrs = []) ?(failed = false) ~name ~vstart ~vstop ~cpu_s () =
  (* Record an externally measured, already-finished span — e.g. per-read
     work timed inside a read wave, parent-linked to the wave's span once
     every read of the wave has run. *)
  if not t.live then None
  else begin
    let depth =
      match parent with
      | Some p -> (
          match List.find_opt (fun s -> s.id = p) t.active with
          | Some s -> s.depth + 1
          | None -> 0)
      | None -> 0
    in
    let sp =
      {
        id = Ctx.fresh t.ids;
        parent;
        depth;
        name;
        attrs;
        seq = t.next_seq;
        vstart;
        vstop;
        cstart = 0.0;
        cstop = cpu_s;
        failed;
      }
    in
    t.next_seq <- t.next_seq + 1;
    push t sp;
    Some sp.id
  end

let finished t =
  (* Oldest first: the ring holds the last [stored] spans ending just
     before [head]. *)
  let out = ref [] in
  for i = 0 to t.stored - 1 do
    let idx = (t.head - 1 - i + (2 * t.capacity)) mod t.capacity in
    match t.ring.(idx) with Some sp -> out := sp :: !out | None -> ()
  done;
  !out

let dropped t = t.dropped

let total t = t.total

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.head <- 0;
  t.stored <- 0;
  t.dropped <- 0;
  t.total <- 0;
  t.active <- []

let v_duration sp = sp.vstop -. sp.vstart

let cpu_duration sp = sp.cstop -. sp.cstart

(* -- export ---------------------------------------------------------------- *)

let escape = Metrics.json_escape

let span_json sp =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "{\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"seq\":%d,\"vstart\":%.9g,\"vstop\":%.9g,\"cpu_s\":%.9g"
    sp.id
    (match sp.parent with Some p -> string_of_int p | None -> "null")
    (escape sp.name) sp.seq sp.vstart sp.vstop (cpu_duration sp);
  if sp.failed then Buffer.add_string b ",\"failed\":true";
  if sp.attrs <> [] then begin
    Buffer.add_string b ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "\"%s\":\"%s\"" (escape k) (escape v))
      (List.rev sp.attrs);
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create 512 in
  List.iter
    (fun sp ->
      Buffer.add_string b (span_json sp);
      Buffer.add_char b '\n')
    (finished t);
  Buffer.contents b

(* -- rendering ------------------------------------------------------------- *)

let render_forest spans =
  let b = Buffer.create 256 in
  let by_parent = Hashtbl.create 16 in
  let ids = Hashtbl.create 16 in
  List.iter (fun sp -> Hashtbl.replace ids sp.id ()) spans;
  List.iter
    (fun sp ->
      (* A span whose parent was evicted from the ring renders as a root. *)
      let key = match sp.parent with Some p when Hashtbl.mem ids p -> Some p | _ -> None in
      Hashtbl.replace by_parent key
        (sp :: (try Hashtbl.find by_parent key with Not_found -> [])))
    spans;
  let children key =
    (try Hashtbl.find by_parent key with Not_found -> [])
    |> List.sort (fun a b -> compare a.seq b.seq)
  in
  let rec emit indent sp =
    Printf.bprintf b "%s%s%s  v=%.3fs cpu=%.6fs%s\n" indent sp.name
      (if sp.failed then " [failed]" else "")
      (v_duration sp) (cpu_duration sp)
      (match sp.attrs with
      | [] -> ""
      | attrs ->
          "  "
          ^ String.concat " "
              (List.rev_map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs));
    List.iter (emit (indent ^ "  ")) (children (Some sp.id))
  in
  List.iter (emit "") (children None);
  Buffer.contents b

let render t = render_forest (finished t)

let last_subtree t =
  (* Subtree of the most recent root span, oldest first. *)
  let spans = finished t in
  let ids = Hashtbl.create 16 in
  List.iter (fun sp -> Hashtbl.replace ids sp.id sp) spans;
  let rec root sp =
    match sp.parent with
    | Some p -> ( match Hashtbl.find_opt ids p with Some up -> root up | None -> sp)
    | None -> sp
  in
  match List.rev spans with
  | [] -> []
  | last :: _ ->
      let r = root last in
      let rec in_subtree sp =
        sp.id = r.id
        ||
        match sp.parent with
        | Some p -> ( match Hashtbl.find_opt ids p with Some up -> in_subtree up | None -> false)
        | None -> false
      in
      List.filter in_subtree spans

let render_last t = render_forest (last_subtree t)
