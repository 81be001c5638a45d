(** A small regular-expression engine (Thompson NFA).

    Glimpse/agrep answer regular-expression queries; this engine backs the
    query language's [/pattern/] terms.  Supported syntax:

    {v
    literals     abc            (any byte except metacharacters)
    escapes      \* \. \/ \\ \n \t  and any escaped metacharacter
    any          .              (any byte except newline)
    classes      [a-z0-9_] [^abc]
    repetition   r* r+ r?
    grouping     (r)
    alternation  r1|r2
    anchors      ^ at the start, $ at the end of the whole pattern
    v}

    Matching is unanchored by default ([matches] finds the pattern anywhere)
    and runs in O(text × states) with no backtracking, so adversarial
    patterns cannot blow up.

    Cost: {!matches} first scans the text once for {!required_word},
    ignoring case, with a bit-parallel filter (a few nanoseconds a byte),
    and rejects a text that lacks it without starting the simulation.  The
    simulation walks only the active states, reusing two state lists and a
    stamp array allocated once per call; each transition tests a byte with
    one table load.  Verifying a 60–180-word document costs about 1–2 µs
    when the filter rejects it. *)

type t
(** A compiled pattern. *)

exception Parse_error of string
(** Raised by {!compile} on malformed patterns. *)

val compile : string -> t
(** Compile a pattern.  Raises {!Parse_error}. *)

val compile_result : string -> (t, string) result
(** Non-raising variant. *)

val source : t -> string
(** The original pattern text. *)

val matches : t -> string -> bool
(** Does the pattern occur in the text (honouring anchors)?  Case-sensitive,
    like the pattern. *)

val find : t -> string -> (int * int) option
(** Leftmost match as [(start, stop))] byte offsets — the shortest match at
    the leftmost starting position. *)

val required_word : t -> string option
(** A lowercase word (>= 2 chars) that every match must contain, if one can
    be read off the pattern syntactically — the literal the index can be
    consulted with before verification, as Glimpse extracts literals from
    regular expressions.  [None] when no such word is certain. *)
