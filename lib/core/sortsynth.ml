(** Umbrella module: one import for the whole system.

    [Sortsynth] re-exports every library in dependency order and offers a
    tiny convenience layer over the most common entry point — synthesizing
    and rendering a sorting kernel. See the README for a tour. *)

module Perms = Perms
module Isa = Isa
module Machine = Machine
module Sstate = Sstate
module Distance = Distance
module Search = Search
module Sortnet = Sortnet
module Minmax = Minmax
module Hybrid = Hybrid
module Sat = Sat
module Smtlite = Smtlite
module Sygus = Sygus
module Csp = Csp
module Ilp = Ilp
module Stoke = Stoke
module Planning = Planning
module Mcts = Mcts
module Perf = Perf
module Tsne = Tsne
module Registry = Registry

(** [synthesize n] returns a verified sorting kernel for arrays of length
    [n] using the paper's best enumerative configuration. *)
let synthesize = Search.synthesize

(** [synthesize_minmax n] returns a verified min/max kernel for length [n],
    or [None] if the bounded search fails. *)
let synthesize_minmax n =
  let r = Minmax.synthesize n in
  match r.Search.programs with
  | p :: _ when Minmax.Vexec.sorts_all_permutations (Isa.Config.default n) p ->
      Some p
  | _ -> None

(** Render a cmov kernel as x86-64 assembly (without memory moves, as in
    the paper). *)
let to_x86 n p = Isa.Program.to_x86 (Isa.Config.default n) p
