(** Generalized Supplementary Counting (Section 7 of the paper).

    Combines the supplementary idea of Section 5 with the counting indices
    of Section 6: supplementary counting predicates [supcnt_r_j] store the
    intermediate joins of each rule's body prefix, carrying the (I, K, H)
    indices of the head's counting guard; counting rules and the modified
    rule read from them instead of recomputing the joins.  Theorem 7.1:
    equivalent to the adorned program.

    Shares the conventions of {!Counting}: path indices unless [encoding]
    asks for the paper's numeric ones, rule numbers and position bases
    from {!Indexing}, the [H/t] normalization, and divergence on cyclic
    data or cyclic argument graphs. *)

val rewrite : ?simplify:bool -> ?encoding:Indexing.encoding -> Adorn.t -> Rewritten.t
