//! Property-based certification of the two exact engines.
//!
//! The sparse revised simplex (the general-LP engine) and the network
//! simplex are independent implementations sharing only the problem
//! representations. The sparse engine's verdicts are *certified* by LP
//! duality: every generated program is kept row-wise, its dual is written
//! down and solved too, and duality must hold (optimal ⇒ dual optimal with
//! an equal objective, both points feasible; infeasible ⇒ dual unbounded
//! or infeasible; unbounded ⇒ dual infeasible). On randomized min-cost-flow
//! instances the network simplex solves the instance directly while the
//! sparse engine solves its [`MinCostFlowProblem::to_lp`] image, which is
//! certified the same way — a three-way check including degenerate,
//! zero-capacity, infeasible and unbounded instances. Directed tests pin
//! those corners explicitly.

use proptest::prelude::*;
use tin_lp::{ConstraintOp, LpProblem, LpSolution, LpStatus, MinCostFlowProblem, Sense};

/// One constraint row: sparse coefficients, operator, right-hand side.
type Row = (Vec<(usize, f64)>, ConstraintOp, f64);

/// A linear program kept row-wise, so that its dual can be written down.
#[derive(Debug, Clone, Default)]
struct RowLp {
    sense: Sense,
    objective: Vec<f64>,
    upper: Vec<f64>,
    rows: Vec<Row>,
}

impl RowLp {
    /// `+1` for maximization, `−1` for minimization.
    fn sign(&self) -> f64 {
        if self.sense == Sense::Minimize {
            -1.0
        } else {
            1.0
        }
    }

    fn to_problem(&self) -> LpProblem {
        let mut p = LpProblem::new(self.objective.len());
        p.set_sense(self.sense);
        for (j, (&c, &u)) in self.objective.iter().zip(&self.upper).enumerate() {
            p.set_objective_coefficient(j, c);
            if u.is_finite() {
                p.set_upper_bound(j, u);
            }
        }
        for (coeffs, op, rhs) in &self.rows {
            p.add_constraint(coeffs, *op, *rhs);
        }
        p
    }

    /// The dual of `max s·c·x  s.t.  A x {≤,≥,=} b,  0 ≤ x ≤ u` (`s = −1`
    /// for [`Sense::Minimize`]): `min b·y + u·w  s.t.  Aᵀy + w ≥ s·c`, with
    /// `y ≥ 0` on `≤` rows, `y ≤ 0` on `≥` rows (stored negated), `y` free
    /// on `=` rows (split `y⁺ − y⁻`), and `w ≥ 0` only for finite bounds.
    fn dual(&self) -> LpProblem {
        // Per dual variable: (primal row, sign of y it stands for).
        let mut y = Vec::new();
        for (i, (_, op, _)) in self.rows.iter().enumerate() {
            match op {
                ConstraintOp::Le => y.push((i, 1.0)),
                ConstraintOp::Ge => y.push((i, -1.0)),
                ConstraintOp::Eq => y.extend([(i, 1.0), (i, -1.0)]),
            }
        }
        let bounded: Vec<usize> = (0..self.upper.len())
            .filter(|&j| self.upper[j].is_finite())
            .collect();
        let mut d = LpProblem::new(y.len() + bounded.len());
        d.set_sense(Sense::Minimize);
        let mut columns = vec![Vec::new(); self.objective.len()];
        for (k, &(i, sign)) in y.iter().enumerate() {
            d.set_objective_coefficient(k, sign * self.rows[i].2);
            for &(j, a) in &self.rows[i].0 {
                columns[j].push((k, sign * a));
            }
        }
        for (k, &j) in bounded.iter().enumerate() {
            d.set_objective_coefficient(y.len() + k, self.upper[j]);
            columns[j].push((y.len() + k, 1.0));
        }
        for (j, column) in columns.iter().enumerate() {
            d.add_ge_constraint(column, self.sign() * self.objective[j]);
        }
        d
    }
}

/// Solves `primal` (the program `rows` describes) with the sparse engine
/// and certifies the verdict against the solved dual. Returns the primal
/// solution.
fn assert_duality_certificate(rows: &RowLp, primal: &LpProblem) -> LpSolution {
    let p = primal.solve();
    let dual = rows.dual();
    let d = dual.solve();
    match p.status {
        LpStatus::Optimal => {
            assert_eq!(
                d.status,
                LpStatus::Optimal,
                "primal optimal, dual {:?}",
                d.status
            );
            assert!(
                primal.is_feasible(&p.variables, 1e-6),
                "primal point infeasible: {:?}",
                p.variables
            );
            assert!(
                dual.is_feasible(&d.variables, 1e-6),
                "dual point infeasible: {:?}",
                d.variables
            );
            assert!(close(primal.objective_value(&p.variables), p.objective));
            assert!(
                close(rows.sign() * p.objective, d.objective),
                "duality gap: primal {} vs dual {}",
                p.objective,
                d.objective
            );
        }
        LpStatus::Infeasible => assert!(
            matches!(d.status, LpStatus::Unbounded | LpStatus::Infeasible),
            "primal infeasible, dual {:?}",
            d.status
        ),
        LpStatus::Unbounded => {
            assert_eq!(
                d.status,
                LpStatus::Infeasible,
                "primal unbounded, dual {:?}",
                d.status
            )
        }
        other => panic!("sparse engine gave no verdict: {other:?}"),
    }
    p
}

/// The repo's deterministic LCG, mapped to a uniform `[0, 1)` draw from its
/// top 53 bits.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A deterministic pseudo-random LP description derived from a seed, shaped
/// like the flow formulation: every variable is upper-bounded, and each
/// constraint row touches only a few variables with ±1-ish coefficients.
#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    seed: u64,
    rows: usize,
}

fn random_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars, 1..=max_rows, any::<u64>()).prop_map(|(num_vars, rows, seed)| RandomLp {
        num_vars,
        rows,
        seed,
    })
}

fn build(desc: &RandomLp) -> RowLp {
    let mut next = lcg(desc.seed);
    let n = desc.num_vars;
    let mut p = RowLp::default();
    for _ in 0..n {
        // Mix of positive, zero and negative objective coefficients.
        p.objective.push((next() * 4.0).floor() - 1.0);
        // Every variable bounded (some tightly, some generously, a few
        // fixed at 0) — the flow formulation's `x_i ≤ q_i` shape.
        p.upper.push((next() * 6.0).floor());
    }
    for _ in 0..desc.rows {
        // Short sparse rows: 1–4 variables, coefficients in {−2,−1,1,2}.
        let len = 1 + (next() * 4.0) as usize;
        let mut coeffs = Vec::with_capacity(len);
        for _ in 0..len {
            let var = (next() * n as f64) as usize % n;
            let mut c = (next() * 4.0).floor() - 2.0;
            if c == 0.0 {
                c = 1.0;
            }
            coeffs.push((var, c));
        }
        let rhs = (next() * 8.0).floor() - 2.0;
        let kind = next();
        p.rows.push(if kind < 0.6 {
            (coeffs, ConstraintOp::Le, rhs.max(0.0))
        } else if kind < 0.85 {
            (coeffs, ConstraintOp::Ge, rhs.min(3.0))
        } else {
            (coeffs, ConstraintOp::Eq, rhs.abs().min(4.0))
        });
    }
    p
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every sparse-engine verdict on a random flow-shaped LP is certified
    /// by strong duality.
    #[test]
    fn duality_certifies_random_flow_shaped_lps(desc in random_lp(10, 8)) {
        let rows = build(&desc);
        assert_duality_certificate(&rows, &rows.to_problem());
    }

    /// All-bounded programs can never be unbounded, whatever the rows say.
    #[test]
    fn bounded_programs_are_never_unbounded(desc in random_lp(8, 6)) {
        let s = build(&desc).to_problem().solve();
        prop_assert!(s.status != LpStatus::Unbounded);
    }
}

// --- Three-way oracle on random min-cost-flow instances -------------------

/// A deterministic pseudo-random bounded MCF instance derived from a seed.
/// Capacities include exact zeros (degenerate pivots), `imbalance` skews
/// total supply away from total demand (infeasible), and `allow_infinite`
/// mixes in uncapacitated arcs with signed costs (unbounded rays become
/// possible).
#[derive(Debug, Clone)]
struct RandomMcf {
    nodes: usize,
    arcs: usize,
    seed: u64,
    allow_infinite: bool,
    imbalance: bool,
}

fn random_mcf(max_nodes: usize, max_arcs: usize) -> impl Strategy<Value = RandomMcf> {
    (2..=max_nodes, 1..=max_arcs, any::<u64>(), 0u32..100).prop_map(|(nodes, arcs, seed, pct)| {
        RandomMcf {
            nodes,
            arcs,
            seed,
            allow_infinite: pct < 30,
            imbalance: pct >= 85,
        }
    })
}

fn build_mcf(desc: &RandomMcf) -> MinCostFlowProblem {
    let mut next = lcg(desc.seed);
    let n = desc.nodes;
    let mut p = MinCostFlowProblem::new(n);
    // Balanced supply/demand pairs (plus an optional deliberate imbalance).
    for _ in 0..n / 2 {
        let u = (next() * n as f64) as usize % n;
        let v = (next() * n as f64) as usize % n;
        if u != v {
            let q = (next() * 4.0).floor();
            p.set_supply(u, p.supply(u) + q);
            p.set_supply(v, p.supply(v) - q);
        }
    }
    if desc.imbalance {
        let u = (next() * n as f64) as usize % n;
        p.set_supply(u, p.supply(u) + 1.0);
    }
    for _ in 0..desc.arcs {
        let tail = (next() * n as f64) as usize % n;
        let mut head = (next() * n as f64) as usize % n;
        if head == tail {
            head = (head + 1) % n;
        }
        let cost = (next() * 7.0).floor() - 3.0;
        // Exact zero capacities are generated on purpose: they are the
        // degenerate corner (an arc that can never leave its bound).
        let cap = match (next() * 6.0) as usize {
            0 => 0.0,
            1 => 1.0,
            2 => 2.0,
            3 => 3.0,
            4 => 5.0,
            _ if desc.allow_infinite => f64::INFINITY,
            _ => 4.0,
        };
        let lower = if cap.is_finite() && cap >= 1.0 && next() < 0.25 {
            1.0
        } else {
            0.0
        };
        p.add_arc_bounded(tail, head, cost, lower, cap);
    }
    p
}

/// The `to_lp` image of `p`, row-wise: minimize cost over lower-bound-
/// shifted arc flows, one balance equality per node.
fn row_image(p: &MinCostFlowProblem) -> RowLp {
    let mut rows: Vec<_> = (0..p.num_nodes())
        .map(|v| (Vec::new(), ConstraintOp::Eq, p.supply(v)))
        .collect();
    let mut image = RowLp {
        sense: Sense::Minimize,
        ..RowLp::default()
    };
    for (j, a) in p.arcs().iter().enumerate() {
        image.objective.push(a.cost);
        image.upper.push(a.upper - a.lower);
        rows[a.tail].0.push((j, 1.0));
        rows[a.tail].2 -= a.lower;
        rows[a.head].0.push((j, -1.0));
        rows[a.head].2 += a.lower;
    }
    image.rows = rows;
    image
}

/// Holds the network simplex, the sparse engine on the `to_lp` image and
/// the duality certificate of that image to the same verdict (and, when
/// optimal, the same cost). Returns the verdict.
fn assert_three_way(p: &MinCostFlowProblem) -> LpStatus {
    let net = p.solve();
    let (lp, offset) = p.to_lp();
    let image = row_image(p);
    let mirror = image.to_problem();
    assert_eq!(
        (mirror.num_constraints(), mirror.num_nonzeros()),
        (lp.num_constraints(), lp.num_nonzeros())
    );
    assert_eq!(mirror.objective(), lp.objective());
    assert_eq!(mirror.upper_bounds(), lp.upper_bounds());
    let sparse = assert_duality_certificate(&image, &lp);
    assert_eq!(
        net.status, sparse.status,
        "netflow {:?} vs sparse {:?}",
        net.status, sparse.status
    );
    if net.status == LpStatus::Optimal {
        assert!(
            close(net.objective, sparse.objective + offset),
            "cost: netflow {} vs sparse {}",
            net.objective,
            sparse.objective + offset
        );
        assert!(
            p.is_feasible(&net.flows, 1e-6),
            "netflow point infeasible: {:?}",
            net.flows
        );
        assert!(close(p.flow_cost(&net.flows), net.objective));
    }
    net.status
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The network simplex (solving the instance directly) and the sparse
    /// engine (solving its `to_lp` image, certified by duality) agree on
    /// the verdict and, on optimal instances, on the optimal cost from a
    /// primal-feasible flow.
    #[test]
    fn three_engines_agree_on_random_mcf_instances(desc in random_mcf(6, 14)) {
        assert_three_way(&build_mcf(&desc));
    }

    /// With every capacity finite the instance can never be unbounded, and
    /// whenever supplies balance the zero point argument applies: lower
    /// bounds of zero make the instance trivially feasible.
    #[test]
    fn finite_capacity_instances_are_never_unbounded(desc in random_mcf(6, 12)) {
        let p = build_mcf(&RandomMcf { allow_infinite: false, ..desc });
        prop_assert!(p.solve().status != LpStatus::Unbounded);
    }
}

// --- Directed corner cases ------------------------------------------------

#[test]
fn degenerate_beale_cycle_terminates() {
    // Beale's classic cycling example; anti-cycling safeguards must hold.
    let mut p = LpProblem::new(4);
    p.set_objective_coefficient(0, 0.75);
    p.set_objective_coefficient(1, -150.0);
    p.set_objective_coefficient(2, 0.02);
    p.set_objective_coefficient(3, -6.0);
    p.add_le_constraint(&[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0);
    p.add_le_constraint(&[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0);
    p.add_le_constraint(&[(2, 1.0)], 1.0);
    let s = p.solve();
    assert_eq!(s.status, LpStatus::Optimal);
    assert!((s.objective - 0.05).abs() < 1e-6, "{}", s.objective);
}

#[test]
fn massively_degenerate_zero_rhs_program_terminates() {
    // Every balance row has RHS 0 (the hard degenerate case in flow LPs).
    let n = 20;
    let mut p = LpProblem::new(n);
    p.set_objective_coefficient(n - 1, 1.0);
    p.set_upper_bound(0, 3.0);
    for j in 1..n {
        p.set_upper_bound(j, 10.0);
        p.add_le_constraint(&[(j, 1.0), (j - 1, -1.0)], 0.0);
    }
    let s = p.solve();
    assert_eq!(s.status, LpStatus::Optimal);
    assert!((s.objective - 3.0).abs() < 1e-6, "{}", s.objective);
}

#[test]
fn unbounded_direction_is_reported() {
    // max x + y with only x + y >= 2: no upper bounds anywhere.
    let mut p = LpProblem::new(2);
    p.set_objective_coefficient(0, 1.0);
    p.set_objective_coefficient(1, 1.0);
    p.add_ge_constraint(&[(0, 1.0), (1, 1.0)], 2.0);
    assert_eq!(p.solve().status, LpStatus::Unbounded);
}

#[test]
fn row_infeasibility_is_reported() {
    let mut p = LpProblem::new(2);
    p.add_eq_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
    p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 1.0);
    assert_eq!(p.solve().status, LpStatus::Infeasible);
}

#[test]
fn bound_infeasibility_is_reported() {
    // x + y >= 5 but both variables are bounded by 1.
    let mut p = LpProblem::new(2);
    p.set_upper_bound(0, 1.0);
    p.set_upper_bound(1, 1.0);
    p.add_ge_constraint(&[(0, 1.0), (1, 1.0)], 5.0);
    assert_eq!(p.solve().status, LpStatus::Infeasible);
}

#[test]
fn equality_with_fixed_variables_is_solved_exactly() {
    // x fixed at 0, x + y = 3, y <= 4 -> y = 3.
    let mut p = LpProblem::new(2);
    p.set_objective_coefficient(1, 1.0);
    p.set_upper_bound(0, 0.0);
    p.set_upper_bound(1, 4.0);
    p.add_eq_constraint(&[(0, 1.0), (1, 1.0)], 3.0);
    let s = p.solve();
    assert_eq!(s.status, LpStatus::Optimal);
    assert!((s.objective - 3.0).abs() < 1e-6);
}

// --- Directed three-way MCF corners ---------------------------------------

#[test]
fn zero_capacity_arcs_are_degenerate_not_wrong() {
    // A cheap but zero-capacity shortcut must not attract flow; the costly
    // detour carries the single unit.
    let mut p = MinCostFlowProblem::new(3);
    p.set_supply(0, 1.0);
    p.set_supply(2, -1.0);
    p.add_arc(0, 2, 1.0, 0.0); // direct but capacity 0
    p.add_arc(0, 1, 2.0, 5.0);
    p.add_arc(1, 2, 2.0, 5.0);
    assert_eq!(assert_three_way(&p), LpStatus::Optimal);
    let net = p.solve();
    assert!((net.objective - 4.0).abs() < 1e-6, "{}", net.objective);
    assert_eq!(net.flows[0], 0.0);
}

#[test]
fn imbalanced_supplies_are_infeasible_three_ways() {
    let mut p = MinCostFlowProblem::new(2);
    p.set_supply(0, 2.0);
    p.set_supply(1, -1.0); // total supply 1 ≠ 0
    p.add_arc(0, 1, 1.0, 5.0);
    assert_eq!(assert_three_way(&p), LpStatus::Infeasible);
}

#[test]
fn capacity_cut_infeasibility_matches_three_ways() {
    // Balanced supplies, but the only connecting arc is one unit short.
    let mut p = MinCostFlowProblem::new(2);
    p.set_supply(0, 3.0);
    p.set_supply(1, -3.0);
    p.add_arc(0, 1, 1.0, 2.0);
    assert_eq!(assert_three_way(&p), LpStatus::Infeasible);
}

#[test]
fn negative_cost_uncapacitated_cycle_is_unbounded_three_ways() {
    let mut p = MinCostFlowProblem::new(2);
    p.add_arc(0, 1, -1.0, f64::INFINITY);
    p.add_arc(1, 0, -1.0, f64::INFINITY);
    assert_eq!(assert_three_way(&p), LpStatus::Unbounded);
}
