//! The canonical JSON report `stng-verify` emits.
//!
//! The report is a `stng_obs::json` value printed indented (like
//! `stng-bench`'s `BENCH_N.json`), and deliberately contains **no timing
//! and no machine-dependent fields**: two runs with the same tier and seed
//! must produce byte-identical reports, which CI checks by running the
//! quick tier twice and comparing the files. Wall-clock numbers go to
//! stderr and to the obs metrics registry instead.

use stng_obs::json::{nu64, obj, s, Json};

/// One check (a Layer-1 enumeration stratum group, a Layer-2 differential
/// oracle, or a Layer-3 fuzzer property sweep).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Stable check name (`fm.engine-agreement`, `diff.prover`, …).
    pub name: String,
    /// Cases driven — enumerated systems, states×VCs, kernels×properties.
    /// Every case is counted; a check must never silently truncate.
    pub cases: u64,
    /// Cases where the implementation disagreed with its oracle. Anything
    /// non-zero fails the whole run.
    pub failures: u64,
    /// Named sub-counts, in insertion order: per-stratum enumeration sizes,
    /// outcome-class tallies, skip counts (with the reason in the name).
    pub detail: Vec<(String, u64)>,
    /// Human-readable descriptions of the first few failures.
    pub notes: Vec<String>,
}

impl CheckReport {
    pub fn new(name: impl Into<String>) -> CheckReport {
        CheckReport {
            name: name.into(),
            ..CheckReport::default()
        }
    }

    /// Records one named count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.detail.push((name.into(), value));
    }

    /// Records a failure, keeping the first few descriptions.
    pub fn fail(&mut self, description: impl Into<String>) {
        self.failures += 1;
        if self.notes.len() < 8 {
            self.notes.push(description.into());
        }
    }
}

/// One of the three layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerReport {
    pub name: &'static str,
    pub checks: Vec<CheckReport>,
}

impl LayerReport {
    pub fn cases(&self) -> u64 {
        self.checks.iter().map(|c| c.cases).sum()
    }

    pub fn failures(&self) -> u64 {
        self.checks.iter().map(|c| c.failures).sum()
    }
}

/// The whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// `quick` or `deep`.
    pub tier: &'static str,
    /// Seed driving the Layer-3 fuzzer (and any seeded sampling elsewhere).
    pub seed: u64,
    pub layers: Vec<LayerReport>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.layers.iter().all(|l| l.failures() == 0)
    }

    pub fn total_cases(&self) -> u64 {
        self.layers.iter().map(|l| l.cases()).sum()
    }

    pub fn total_failures(&self) -> u64 {
        self.layers.iter().map(|l| l.failures()).sum()
    }

    /// Canonical JSON rendering: construction order, no timing, no paths.
    pub fn to_json(&self) -> String {
        let check_json = |check: &CheckReport| {
            obj(vec![
                ("name", s(&check.name)),
                ("cases", nu64(check.cases)),
                ("failures", nu64(check.failures)),
                (
                    "detail",
                    obj(check
                        .detail
                        .iter()
                        .map(|(k, v)| (k.as_str(), nu64(*v)))
                        .collect()),
                ),
                ("notes", Json::Arr(check.notes.iter().map(s).collect())),
            ])
        };
        let layers = self
            .layers
            .iter()
            .map(|layer| {
                obj(vec![
                    ("name", s(layer.name)),
                    ("cases", nu64(layer.cases())),
                    ("failures", nu64(layer.failures())),
                    (
                        "checks",
                        Json::Arr(layer.checks.iter().map(check_json).collect()),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("tier", s(self.tier)),
            ("seed", nu64(self.seed)),
            ("cases", nu64(self.total_cases())),
            ("failures", nu64(self.total_failures())),
            ("passed", Json::Bool(self.passed())),
            ("layers", Json::Arr(layers)),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let awkward = "q\"b\\n\nu\u{1}";
        let mut check = CheckReport::new("fm.engine-agreement");
        check.cases = 3;
        check.count("stratum \"a\"", 2);
        check.count(awkward, 4);
        check.fail("row x ≤ 0\nbroke");
        check.fail(awkward);
        let report = Report {
            tier: "quick",
            seed: 0x57e9_c11a_0000_0001,
            layers: vec![LayerReport {
                name: "model-checking",
                checks: vec![check],
            }],
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("report is valid JSON");
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("seed").and_then(Json::as_u64),
            Some(0x57e9_c11a_0000_0001)
        );
        assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(2));
        let layer = &doc.get("layers").and_then(Json::as_arr).expect("layers")[0];
        assert_eq!(
            layer.get("name").and_then(Json::as_str),
            Some("model-checking")
        );
        let check = &layer.get("checks").and_then(Json::as_arr).expect("checks")[0];
        let detail = check.get("detail").expect("detail");
        assert_eq!(detail.get("stratum \"a\"").and_then(Json::as_u64), Some(2));
        assert_eq!(detail.get(awkward).and_then(Json::as_u64), Some(4));
        let notes: Vec<&str> = check
            .get("notes")
            .and_then(Json::as_arr)
            .expect("notes")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(notes, vec!["row x ≤ 0\nbroke", awkward]);
    }
}
