//! Solver-agnostic optimization model builder.
//!
//! Mirrors the slice of the Gurobi model API the paper's formulation
//! needs: bounded (possibly integer) variables, a linear minimization
//! objective, and linear constraints with `≤ / = / ≥` senses.

use std::fmt;

/// Index of a variable in a [`Model`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// Index of a constraint in a [`Model`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstrId(pub usize);

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

impl fmt::Display for Sense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sense::Le => "<=",
            Sense::Eq => "=",
            Sense::Ge => ">=",
        })
    }
}

/// A decision variable.
#[derive(Clone, Debug)]
pub struct Variable {
    /// Name for diagnostics.
    pub name: String,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lb: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub ub: f64,
    /// Objective coefficient (the model always *minimizes*).
    pub obj: f64,
    /// Whether the MILP solver must drive this variable integral.
    pub integer: bool,
}

/// A linear constraint `Σ coeffs · x  sense  rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Name for diagnostics.
    pub name: String,
    /// Sparse coefficient list; at most one entry per variable
    /// (duplicates are merged by [`Model::add_constr`]).
    pub coeffs: Vec<(VarId, f64)>,
    /// Relation between the expression and `rhs`.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization model.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// Model name, used in solver logs.
    pub name: String,
    vars: Vec<Variable>,
    constrs: Vec<Constraint>,
}

impl Model {
    /// A fresh empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            vars: Vec::new(),
            constrs: Vec::new(),
        }
    }

    /// Add a variable; returns its id. `lb ≤ ub` is required.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lb: f64,
        ub: f64,
        obj: f64,
        integer: bool,
    ) -> VarId {
        assert!(lb <= ub, "variable bounds must satisfy lb <= ub");
        assert!(!lb.is_nan() && !ub.is_nan() && obj.is_finite());
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            lb,
            ub,
            obj,
            integer,
        });
        id
    }

    /// Add a continuous variable on `[0, ∞)` with objective `obj`.
    pub fn add_nonneg(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, f64::INFINITY, obj, false)
    }

    /// Add a constraint; duplicate variable entries in `coeffs` are summed.
    pub fn add_constr(
        &mut self,
        name: impl Into<String>,
        coeffs: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> ConstrId {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut merged = coeffs;
        merged.retain(|&(v, c)| {
            assert!(
                v.0 < self.vars.len(),
                "constraint references unknown variable"
            );
            assert!(c.is_finite());
            c != 0.0
        });
        merged.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(merged.len());
        for (v, c) in merged {
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                _ => out.push((v, c)),
            }
        }
        let id = ConstrId(self.constrs.len());
        self.constrs.push(Constraint {
            name: name.into(),
            coeffs: out,
            sense,
            rhs,
        });
        id
    }

    /// Append a variable together with its column: `entries` lists its
    /// coefficient in each existing row it appears in (column
    /// generation). The new id is the largest, so each row's
    /// sorted-by-variable invariant survives a plain push.
    pub fn add_col(
        &mut self,
        name: impl Into<String>,
        lb: f64,
        ub: f64,
        obj: f64,
        entries: &[(ConstrId, f64)],
    ) -> VarId {
        let id = self.add_var(name, lb, ub, obj, false);
        for &(row, a) in entries {
            assert!(a.is_finite() && a != 0.0, "column entries must be non-zero");
            self.constrs[row.0].coeffs.push((id, a));
        }
        id
    }

    /// Replace a constraint's right-hand side in place.
    pub fn set_rhs(&mut self, id: ConstrId, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.constrs[id.0].rhs = rhs;
    }

    /// Set the coefficient of `var` in constraint `id` (zero removes the
    /// entry), keeping the row sorted by variable.
    pub fn set_coeff(&mut self, id: ConstrId, var: VarId, coeff: f64) {
        assert!(var.0 < self.vars.len() && coeff.is_finite());
        let row = &mut self.constrs[id.0].coeffs;
        match (row.binary_search_by_key(&var, |&(v, _)| v), coeff != 0.0) {
            (Ok(k), true) => row[k].1 = coeff,
            (Ok(k), false) => {
                row.remove(k);
            }
            (Err(k), true) => row.insert(k, (var, coeff)),
            (Err(_), false) => {}
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constrs(&self) -> usize {
        self.constrs.len()
    }

    /// All variables, indexed by [`VarId`].
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// All constraints, indexed by [`ConstrId`].
    pub fn constrs(&self) -> &[Constraint] {
        &self.constrs
    }

    /// The variable with the given id.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Tighten the bounds of a variable in place (used by branch & bound).
    pub fn set_bounds(&mut self, id: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "variable bounds must satisfy lb <= ub");
        self.vars[id.0].lb = lb;
        self.vars[id.0].ub = ub;
    }

    /// Drop constraints with index ≥ `start` for which `keep` returns
    /// false. Used by the MILP solver's cut-pool management; indices of
    /// surviving rows shift, so callers must not hold `ConstrId`s across
    /// this call.
    pub fn purge_constrs(&mut self, start: usize, mut keep: impl FnMut(&Constraint) -> bool) {
        let mut i = start;
        while i < self.constrs.len() {
            if keep(&self.constrs[i]) {
                i += 1;
            } else {
                self.constrs.remove(i);
            }
        }
    }

    /// Evaluate a constraint's slack at a point: positive slack means
    /// strictly satisfied, negative means violated (`Eq` rows return the
    /// negated absolute residual).
    pub fn row_slack(&self, c: &Constraint, x: &[f64]) -> f64 {
        let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v.0]).sum();
        match c.sense {
            Sense::Le => c.rhs - lhs,
            Sense::Ge => lhs - c.rhs,
            Sense::Eq => -(lhs - c.rhs).abs(),
        }
    }

    /// Objective value of a point (no feasibility implied).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Largest constraint violation of a point (0 means feasible w.r.t.
    /// rows; bounds are checked separately).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.constrs {
            let lhs: f64 = c.coeffs.iter().map(|&(v, a)| a * x[v.0]).sum();
            let viol = match c.sense {
                Sense::Le => lhs - c.rhs,
                Sense::Ge => c.rhs - lhs,
                Sense::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Whether `x` satisfies all rows and bounds within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if self.max_violation(x) > tol {
            return false;
        }
        self.vars
            .iter()
            .zip(x)
            .all(|(v, &xi)| xi >= v.lb - tol && xi <= v.ub + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_small_model() {
        let mut m = Model::new("t");
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let y = m.add_nonneg("y", 2.0);
        m.add_constr("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constrs(), 1);
        assert_eq!(m.var(x).ub, 10.0);
        assert!(m.var(y).ub.is_infinite());
    }

    #[test]
    fn duplicate_coefficients_are_merged() {
        let mut m = Model::new("t");
        let x = m.add_nonneg("x", 1.0);
        m.add_constr("c", vec![(x, 1.0), (x, 2.0)], Sense::Le, 5.0);
        assert_eq!(m.constrs()[0].coeffs, vec![(x, 3.0)]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut m = Model::new("t");
        let x = m.add_nonneg("x", 1.0);
        let y = m.add_nonneg("y", 1.0);
        m.add_constr("c", vec![(x, 0.0), (y, 1.0)], Sense::Le, 5.0);
        assert_eq!(m.constrs()[0].coeffs, vec![(y, 1.0)]);
    }

    #[test]
    fn columns_and_patches_keep_rows_sorted() {
        let mut m = Model::new("t");
        let x = m.add_nonneg("x", 1.0);
        let z = m.add_nonneg("z", 1.0);
        let r0 = m.add_constr("r0", vec![(z, 2.0)], Sense::Le, 5.0);
        let r1 = m.add_constr("r1", vec![], Sense::Ge, 0.0);
        let y = m.add_col("y", 0.0, 3.0, -1.0, &[(r0, 1.0), (r1, 4.0)]);
        assert_eq!(m.constrs()[0].coeffs, vec![(z, 2.0), (y, 1.0)]);
        assert_eq!(m.constrs()[1].coeffs, vec![(y, 4.0)]);
        assert_eq!((m.var(y).ub, m.var(y).obj), (3.0, -1.0));
        m.set_coeff(r0, x, 7.0); // insert before z
        m.set_coeff(r0, y, 9.0); // overwrite
        m.set_coeff(r0, z, 0.0); // remove
        m.set_coeff(r1, x, 0.0); // absent and zero: no-op
        assert_eq!(m.constrs()[0].coeffs, vec![(x, 7.0), (y, 9.0)]);
        assert_eq!(m.constrs()[1].coeffs, vec![(y, 4.0)]);
        m.set_rhs(r1, -2.0);
        assert_eq!(m.constrs()[1].rhs, -2.0);
    }

    #[test]
    fn feasibility_and_objective_evaluation() {
        let mut m = Model::new("t");
        let x = m.add_var("x", 0.0, 4.0, 3.0, false);
        m.add_constr("c", vec![(x, 2.0)], Sense::Le, 6.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[3.5], 1e-9)); // row violated
        assert!(!m.is_feasible(&[5.0], 1e-9)); // bound violated
        assert_eq!(m.objective_value(&[2.0]), 6.0);
        assert!((m.max_violation(&[4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lb <= ub")]
    fn rejects_crossed_bounds() {
        Model::new("t").add_var("x", 1.0, 0.0, 0.0, false);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_unknown_variables_in_rows() {
        let mut m = Model::new("t");
        m.add_constr("c", vec![(VarId(3), 1.0)], Sense::Le, 1.0);
    }
}
