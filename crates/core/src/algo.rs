//! [`SccAlgorithm`] adapter for the Ext-SCC family — the unified entry point
//! the conformance harness and the bench tables dispatch through.

use ce_extmem::DiskEnv;
use ce_graph::algo::{AlgoBudget, AlgoError, SccAlgorithm, SccSolution};
use ce_graph::EdgeListGraph;

use crate::driver::{ExtScc, ExtSccConfig, ExtSccError};

/// An Ext-SCC configuration behind the unified [`SccAlgorithm`] interface.
///
/// [`ExtSccAlgo::baseline`] is the paper's Ext-SCC, [`ExtSccAlgo::optimized`]
/// is Ext-SCC-Op; [`ExtSccAlgo::with_config`] wraps an arbitrary ablation
/// configuration under a caller-chosen display name.
#[derive(Debug, Clone)]
pub struct ExtSccAlgo {
    name: &'static str,
    cfg: ExtSccConfig,
}

impl ExtSccAlgo {
    /// The paper's plain Ext-SCC.
    pub fn baseline() -> ExtSccAlgo {
        ExtSccAlgo {
            name: "Ext-SCC",
            cfg: ExtSccConfig::baseline(),
        }
    }

    /// Ext-SCC-Op (Section-VII reductions enabled).
    pub fn optimized() -> ExtSccAlgo {
        ExtSccAlgo {
            name: "Ext-SCC-Op",
            cfg: ExtSccConfig::optimized(),
        }
    }

    /// An arbitrary configuration (ablations) under `name`.
    pub fn with_config(name: &'static str, cfg: ExtSccConfig) -> ExtSccAlgo {
        ExtSccAlgo { name, cfg }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ExtSccConfig {
        &self.cfg
    }
}

impl SccAlgorithm for ExtSccAlgo {
    fn name(&self) -> &'static str {
        self.name
    }

    fn solve(
        &self,
        env: &DiskEnv,
        g: &EdgeListGraph,
        budget: &AlgoBudget,
    ) -> Result<SccSolution, AlgoError> {
        let mut cfg = self.cfg.clone();
        cfg.deadline = budget.deadline;
        cfg.io_limit = budget.io_limit;
        match ExtScc::new(env, cfg).run(g) {
            Ok(out) => Ok(SccSolution {
                n_sccs: out.report.n_sccs,
                iterations: Some(out.report.iterations()),
                labels: out.labels,
            }),
            Err(ExtSccError::Io(e)) => Err(AlgoError::Io(e)),
            Err(e @ ExtSccError::DeadlineExceeded { .. })
            | Err(e @ ExtSccError::IoLimitExceeded { .. }) => Err(AlgoError::Budget(e.to_string())),
            Err(e) => Err(AlgoError::Stalled(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_extmem::IoConfig;
    use ce_graph::gen;

    #[test]
    fn trait_run_matches_direct_driver() {
        let env = DiskEnv::new_temp(IoConfig::new(2 << 10, 32 << 10)).unwrap();
        let g = gen::cycle(&env, 5000).unwrap();
        let run = ExtSccAlgo::optimized().run(&env, &g).unwrap();
        assert_eq!(run.n_sccs, 1);
        assert!(run.iterations.unwrap() >= 1, "contraction actually ran");
        assert!(run.ios.total_ios() > 0);
        assert_eq!(run.labeling(5000).unwrap().n_sccs(), 1);
        assert_eq!(ExtSccAlgo::baseline().name(), "Ext-SCC");
        assert_eq!(ExtSccAlgo::optimized().name(), "Ext-SCC-Op");
    }

    #[test]
    fn io_cap_surfaces_as_budget_error() {
        let env = DiskEnv::new_temp(IoConfig::new(1 << 10, 16 << 10)).unwrap();
        let g = gen::permuted_cycle(&env, 3000, 1).unwrap();
        let budget = AlgoBudget::capped(10, std::time::Duration::from_secs(60));
        match ExtSccAlgo::baseline().run_budgeted(&env, &g, &budget) {
            Err(AlgoError::Budget(_)) => {}
            other => panic!("expected Budget error, got {other:?}"),
        }
    }
}
