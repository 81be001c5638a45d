(** Bitap ("shift-or") exact and approximate string matching.

    Glimpse verifies index candidates with agrep; this module is our agrep:
    Baeza-Yates–Gonnet exact bitap and the Wu–Manber extension allowing up to
    [k] edit errors (insertion, deletion, substitution).  Patterns are
    limited to one machine word ([Sys.int_size - 1] characters, 62 on 64-bit)
    which comfortably covers indexable words. *)

val max_pattern_len : int
(** Longest supported pattern. *)

val find_exact : pattern:string -> string -> int option
(** Index of the first exact occurrence of [pattern] in the text, or
    [None].  The empty pattern matches at 0.  Raises [Invalid_argument] when
    the pattern is too long. *)

type exact
(** A pattern compiled once for a case-insensitive exact scan of many
    texts. *)

val exact_ci : string -> exact
(** Compile a pattern for {!occurs}.  ASCII letters match either case.  A
    pattern longer than {!max_pattern_len} keeps its first
    {!max_pattern_len} bytes, so {!occurs} may then answer [true] for a
    text holding only that prefix, never [false] for one holding the whole
    pattern. *)

val occurs : exact -> string -> bool
(** Whether the text contains the compiled pattern, ignoring ASCII case —
    one bit-parallel pass, no allocation.  The empty pattern occurs
    everywhere. *)

val count_exact : pattern:string -> string -> int
(** Number of (possibly overlapping) exact occurrences. *)

val find_approx : pattern:string -> errors:int -> string -> int option
(** End position (exclusive) of the first match of [pattern] within edit
    distance [errors], or [None].  [errors = 0] behaves like
    {!find_exact} except for the returned position convention. *)

val matches_approx : pattern:string -> errors:int -> string -> bool
(** Whether the text contains a match within the given edit distance. *)

val edit_distance : ?cutoff:int -> string -> string -> int
(** Levenshtein distance between two whole strings.  When [cutoff] is given
    and the distance exceeds it, returns [cutoff + 1] quickly. *)

val word_matches : pattern:string -> errors:int -> string -> bool
(** Whole-word approximate equality: the edit distance between [pattern] and
    the candidate word is at most [errors].  This is what vocabulary
    expansion of [~approx] query terms uses. *)
