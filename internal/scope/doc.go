// Package scope implements a balancement scope: a set of vnodes whose
// partitions all share one splitlevel and are kept balanced by the §2.5
// algorithm of Rufino et al. (IPDPS 2004).
//
// The paper instantiates this structure twice.  In the global approach the
// whole DHT is a single scope (the GPDR records its distribution, invariants
// G1–G5 hold).  In the local approach each *group* of vnodes is a scope of
// its own (the LPDR records it, invariants G2′–G5′ hold per group).  Both
// packages — internal/global and internal/core — build on this one
// implementation, mirroring the paper's statement that groups reuse the
// global algorithm unchanged (§3.1).  A scope owns the partitions behind
// its PDR; its join and leave decisions come from package balance's group
// planner, which the cluster runtime's group leaders apply too.
package scope
