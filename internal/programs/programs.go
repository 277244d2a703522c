// Package programs is the one copy of the paper's example programs (Ross
// & Sagiv, PODS 1992) in the concrete rule-language syntax. Its readers
// are the benchmark module (benchmark/), the experiment harness
// (internal/experiments, cmd/experiments), the root benchmarks, the tests
// and the checked Examples in examples/. The runnable shortestpath,
// party, circuit and companycontrol files in examples/programs add facts
// to these rules, and TestMDLFilesMatchPrograms fails if they drift.
package programs

// ShortestPath is Example 2.6 with its conflict-freedom integrity
// constraint (Example 2.5).
const ShortestPath = `
.cost arc/3 : minreal.
.cost path/4 : minreal.
.cost s/3 : minreal.
.ic :- arc(direct, Z, C).

path(X, direct, Y, C) :- arc(X, Y, C).
path(X, Z, Y, C)      :- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C)            :- C ?= min D : path(X, Z, Y, D).
`

// CompanyControl is Example 2.7.
const CompanyControl = `
.cost s/3 : sumreal.
.cost cv/4 : sumreal.
.cost m/3 : sumreal.

cv(X, X, Y, N) :- s(X, Y, N).
cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
m(X, Y, N)     :- N ?= sum M : cv(X, Z, Y, M).
c(X, Y)        :- m(X, Y, N), N > 0.5.
`

// CompanyControlFused is the r-monotonic reformulation from §5.2 (rules 3
// and 4 combined), used in the stratification-ladder experiment.
const CompanyControlFused = `
.cost s/3 : sumreal.
.cost cv/4 : sumreal.

cv(X, X, Y, N) :- s(X, Y, N).
cv(X, Z, Y, N) :- c(X, Z), s(Z, Y, N).
c(X, Y)        :- N ?= sum M : cv(X, Z, Y, M), N > 0.5.
`

// Party is Example 4.3.
const Party = `
.cost requires/2 : countnat.

coming(X) :- requires(X, K), N = count : kc(X, Y), N >= K.
kc(X, Y)  :- knows(X, Y), coming(Y).
`

// Circuit is Example 4.4 with the disjointness integrity constraints the
// example assumes.
const Circuit = `
.cost t/2 : boolor.
.cost input/2 : boolor.
.default t/2 = 0.
.ic :- gate(G, or), gate(G, and).
.ic :- input(W, C), gate(W, T).

t(W, C) :- input(W, C).
t(G, C) :- gate(G, or),  C = or D : [connect(G, W), t(W, D)].
t(G, C) :- gate(G, and), C = and D : [connect(G, W), t(W, D)].
`

// Halfsum is Example 5.1, whose least fixpoint lies at ω.
const Halfsum = `
.cost p/2 : sumreal.

p(b, 1).
p(a, C) :- C ?= halfsum D : p(X, D).
`

// TwoMinimalModels is the §3 opening example with two incomparable
// minimal Herbrand models; it is not admissible.
const TwoMinimalModels = `
p(b).
q(b).
p(a) :- N ?= count : q(X), N = 1.
q(a) :- N ?= count : p(X), N = 1.
`

// Averages is Example 2.1's family of grouped averages and counts.
const Averages = `
.cost record/3 : sumreal.
.cost s_avg/2 : sumreal.
.cost c_avg/2 : sumreal.
.cost all_avg/1 : sumreal.
.cost class_count/2 : countnat.
.cost alt_class_count/2 : countnat.

s_avg(S, G)           :- G ?= avg G2 : record(S, C, G2).
c_avg(C, G)           :- G ?= avg G2 : record(S, C, G2).
all_avg(G)            :- G ?= avg G2 : c_avg(S, G2).
class_count(C, N)     :- N ?= count : record(S, C, G).
alt_class_count(C, N) :- courses(C), N = count : record(S, C, G).
`
