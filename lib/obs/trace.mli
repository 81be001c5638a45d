(** Nested tracing spans with deterministic timestamps.

    Spans take their primary timestamps from a caller-supplied [now]
    function — in this repo the virtual fault clock — so traces are
    reproducible under tests and fault injection.  A second CPU clock
    ([Sys.time] by default) records real durations for profiling, and a
    global sequence number gives a strict order even when neither clock
    advances.  Finished spans are kept in a bounded ring buffer.

    Span ids are seeded 64-bit values ([Ctx.gen] streams), unique across
    [clear] and across multiple rings — dumps from successive runs can be
    merged without id collisions. *)

type span = {
  id : int;
  parent : int option;  (** enclosing span id, [None] for roots *)
  depth : int;  (** nesting depth at open time, roots are 0 *)
  name : string;
  mutable attrs : (string * string) list;
  seq : int;  (** global open order; strictly increasing *)
  vstart : float;  (** virtual-clock open time *)
  mutable vstop : float;
  cstart : float;  (** CPU-clock open time *)
  mutable cstop : float;
  mutable failed : bool;  (** closed by an escaping exception *)
}

type t

val create :
  ?capacity:int ->
  ?cpu:(unit -> float) ->
  ?on_close:(span -> unit) ->
  ?seed:int ->
  now:(unit -> float) ->
  unit ->
  t
(** [capacity] bounds the finished-span ring (default 512).  [on_close]
    fires for every finished span — used to feed per-span histograms into a
    metrics registry.  [seed] pins the span-id stream; by default each
    tracer draws a distinct seed so ids never collide across rings.
    Tracing starts {e disabled}. *)

val set_enabled : t -> bool -> unit

val enabled : t -> bool

val with_span : t -> ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a new span.  When tracing is disabled this is exactly
    [f ()].  An escaping exception marks the span [failed] and is
    re-raised. *)

val set_attr : t -> string -> string -> unit
(** Attach an attribute to the innermost active span; no-op when no span is
    open (e.g. tracing disabled). *)

val set_attr_int : t -> string -> int -> unit

val current : t -> int option
(** Id of the innermost active span, if any — the parent to use when
    linking externally measured work (see [emit]). *)

val emit :
  t ->
  ?parent:int ->
  ?attrs:(string * string) list ->
  ?failed:bool ->
  name:string ->
  vstart:float ->
  vstop:float ->
  cpu_s:float ->
  unit ->
  int option
(** Record an already-finished span measured elsewhere (e.g. per read of a
    read wave), optionally parent-linked.  Returns its id, or [None] when
    tracing is disabled. *)

val finished : t -> span list
(** Finished spans still in the ring, oldest first. *)

val dropped : t -> int
(** Spans evicted from the ring since the last [clear]. *)

val total : t -> int
(** Spans ever finished since the last [clear]. *)

val clear : t -> unit

val v_duration : span -> float

val cpu_duration : span -> float

val to_jsonl : t -> string
(** One JSON object per finished span, oldest first. *)

val render : t -> string
(** Indented forest of all spans in the ring. *)

val last_subtree : t -> span list
(** The spans of the most recently finished root span's subtree, oldest
    first; [[]] when the ring is empty. *)

val render_last : t -> string
(** Indented subtree of the most recently finished root span. *)
