(** Access-awareness auditor (the paper's Appendix C), packaged as a
    reclamation scheme.

    Integrating a data structure with [Phase_audit] runs it with
    no-reclamation semantics while checking the read/write-phase
    discipline that defines {e access-aware} implementations:

    - during a read-only phase, every dereference must go through a
      {e j-permitted} pointer: one derived — within the current phase — by
      a chain of dereferences starting at an entry point, a fresh
      allocation, or another permitted pointer (Appendix C conditions 1–2);
    - during a write phase, every access must go through a pointer that
      was permitted when the last read phase ended and was declared in the
      phase's reservation set (condition 3; the reservation set is how the
      data structure names those pointers).

    Violations of the discipline are counted (not raised): a structure is
    access-aware evidence-wise when arbitrary executions audit clean.
    Experiment E7 uses this to re-derive Appendix D (Harris's list is
    access-aware). *)

include Smr_intf.S

val discipline_violations : t -> (string * int) list
(** [(description, count)] of distinct discipline violations observed. *)

