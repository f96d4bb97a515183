//! Schedule autotuning in the style of OpenTuner (§5.3): an ensemble of
//! schedule mutators selected by a multi-armed bandit, evaluating candidate
//! schedules by actually executing the stencil and keeping the best.

use crate::buffer::Buffer;
use crate::func::Func;
use crate::schedule::{realize, Region, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The result of an autotuning session.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The best schedule found.
    pub best: Schedule,
    /// Measured execution time of the best schedule.
    pub best_time: Duration,
    /// Measured execution time of the naive schedule (the baseline the search
    /// started from).
    pub naive_time: Duration,
    /// Number of candidate schedules evaluated.
    pub evaluations: usize,
}

/// An OpenTuner-style autotuner: each mutation operator is an arm of a
/// multi-armed bandit; arms that produce improvements are pulled more often.
#[derive(Debug, Clone)]
pub struct Autotuner {
    /// Number of candidate schedules to evaluate.
    pub budget: usize,
    /// Worker threads available to parallel schedules.
    pub threads: usize,
    /// RNG seed (tuning is reproducible).
    pub seed: u64,
    /// Exploration constant of the bandit.
    pub exploration: f64,
}

impl Default for Autotuner {
    fn default() -> Self {
        Autotuner {
            budget: 24,
            threads: 4,
            seed: 0x0075_7e4e,
            exploration: 1.4,
        }
    }
}

const ARMS: usize = 2;

impl Autotuner {
    /// Creates an autotuner with the given evaluation budget.
    pub fn with_budget(budget: usize) -> Autotuner {
        Autotuner {
            budget,
            ..Autotuner::default()
        }
    }

    /// Tunes the schedule of `func` over `region` against the given inputs.
    pub fn tune(
        &self,
        func: &Func,
        region: &Region,
        inputs: &HashMap<String, &Buffer>,
        params: &HashMap<String, f64>,
    ) -> TuneReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let naive = Schedule::naive(func.rank);
        let naive_time = measure(func, &naive, region, inputs, params);

        let mut best = Schedule::default_tuned(func.rank, self.threads);
        let mut best_time = measure(func, &best, region, inputs, params);
        if naive_time < best_time {
            best = naive.clone();
            best_time = naive_time;
        }

        // Multi-armed bandit over mutation operators (UCB1).
        let mut pulls = [1usize; ARMS];
        let mut rewards = [1.0f64; ARMS];
        let mut evaluations = 2usize;
        for trial in 0..self.budget {
            let total_pulls: usize = pulls.iter().sum();
            let arm = (0..ARMS)
                .max_by(|&a, &b| {
                    let ucb = |k: usize| {
                        rewards[k] / pulls[k] as f64
                            + self.exploration
                                * ((total_pulls as f64).ln() / pulls[k] as f64).sqrt()
                    };
                    ucb(a)
                        .partial_cmp(&ucb(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            let candidate = mutate(&best, arm, func.rank, self.threads, &mut rng);
            let time = measure(func, &candidate, region, inputs, params);
            evaluations += 1;
            pulls[arm] += 1;
            if time < best_time {
                rewards[arm] += 1.0;
                best = candidate;
                best_time = time;
            }
            let _ = trial;
        }

        TuneReport {
            best,
            best_time,
            naive_time,
            evaluations,
        }
    }
}

/// The mutation operators (the bandit's arms).
fn mutate(base: &Schedule, arm: usize, rank: usize, threads: usize, rng: &mut StdRng) -> Schedule {
    let mut s = base.clone();
    match arm {
        0 => {
            // Re-tile one dimension.
            let dim = rng.gen_range(0..rank.max(1));
            let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128];
            if dim < s.tile.len() {
                s.tile[dim] = sizes[rng.gen_range(0..sizes.len())];
            }
        }
        _ => {
            // Toggle / resize parallelism.
            s.parallel = !s.parallel || rng.gen_bool(0.5);
            s.threads = [1, 2, 4, 8, threads.max(1)][rng.gen_range(0..5)];
        }
    }
    s
}

fn measure(
    func: &Func,
    schedule: &Schedule,
    region: &Region,
    inputs: &HashMap<String, &Buffer>,
    params: &HashMap<String, f64>,
) -> Duration {
    let start = Instant::now();
    let out = realize(func, schedule, region, inputs, params);
    let elapsed = start.elapsed();
    std::hint::black_box(out);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{HExpr, HIndex};

    #[test]
    fn tuning_never_returns_something_slower_than_its_own_baselines() {
        let func = Func::new(
            "blur",
            2,
            HExpr::Add(
                Box::new(HExpr::Input {
                    image: "b".into(),
                    index: vec![
                        HIndex::VarOffset { var: 0, offset: -1 },
                        HIndex::VarOffset { var: 1, offset: 0 },
                    ],
                }),
                Box::new(HExpr::Input {
                    image: "b".into(),
                    index: vec![
                        HIndex::VarOffset { var: 0, offset: 0 },
                        HIndex::VarOffset { var: 1, offset: 0 },
                    ],
                }),
            ),
        );
        let b = Buffer::from_fn(vec![0, 0], vec![64, 64], |ix| (ix[0] ^ ix[1]) as f64);
        let mut inputs = HashMap::new();
        inputs.insert("b".to_string(), &b);
        let params = HashMap::new();
        let tuner = Autotuner {
            budget: 6,
            threads: 2,
            seed: 7,
            exploration: 1.4,
        };
        let report = tuner.tune(&func, &vec![(1, 63), (0, 63)], &inputs, &params);
        assert!(report.best_time <= report.naive_time || report.best == Schedule::naive(2));
        assert!(report.evaluations >= 8);
    }
}
