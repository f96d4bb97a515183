//! Schedules and the CPU runtime that executes a [`Func`] under a schedule.
//!
//! The schedule language covers the directives this runtime can honour:
//! loop tiling and parallelization of the outermost loop (bands of it are
//! distributed over scoped worker threads). The expression is resolved
//! against its buffers and parameters once per [`realize`] call, so the
//! per-point work is arithmetic and clamped reads only.

use crate::buffer::Buffer;
use crate::func::{Func, Resolved};
use std::collections::HashMap;

/// A schedule for one stencil function.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Tile extent per dimension (1 = no tiling in that dimension).
    pub tile: Vec<usize>,
    /// Run tiles of the outermost dimension on worker threads.
    pub parallel: bool,
    /// Number of worker threads when `parallel` is set.
    pub threads: usize,
}

impl Schedule {
    /// The default (naive) schedule: no tiling, serial.
    pub fn naive(rank: usize) -> Schedule {
        Schedule {
            tile: vec![1; rank],
            parallel: false,
            threads: 1,
        }
    }

    /// A reasonable hand-written starting point: tile by 32, parallel outer.
    pub fn default_tuned(rank: usize, threads: usize) -> Schedule {
        Schedule {
            tile: vec![32; rank],
            parallel: true,
            threads,
        }
    }

    /// Short human-readable description (autotuner logs, reports).
    pub fn describe(&self) -> String {
        format!(
            "tile={:?} parallel={} threads={}",
            self.tile, self.parallel, self.threads
        )
    }
}

/// The region to realize: per output dimension, the inclusive `(min, max)`
/// logical bounds. For a strided [`Func`] the points actually realized in a
/// dimension are `min, min + step, … ≤ max`.
pub type Region = Vec<(i64, i64)>;

/// Number of realized points of one region dimension under a step.
fn trip_count(lo: i64, hi: i64, step: i64) -> usize {
    if lo > hi {
        0
    } else {
        ((hi - lo) / step + 1) as usize
    }
}

/// Realizes `func` over `region` into a new buffer, honouring the schedule.
/// The iteration runs in *counter space* (packed trip indices), mapping to
/// logical coordinates through the function's per-dimension steps, so
/// strided functions write exactly their progression points.
///
/// `inputs` maps image names to buffers and `params` maps scalar parameter
/// names to values.
pub fn realize(
    func: &Func,
    schedule: &Schedule,
    region: &Region,
    inputs: &HashMap<String, &Buffer>,
    params: &HashMap<String, f64>,
) -> Buffer {
    assert_eq!(
        region.len(),
        func.rank,
        "region rank must match the function"
    );
    let origin: Vec<i64> = region.iter().map(|(lo, _)| *lo).collect();
    let extent: Vec<usize> = region
        .iter()
        .zip(&func.steps)
        .map(|((lo, hi), step)| trip_count(*lo, *hi, *step))
        .collect();
    let mut output = Buffer::strided(origin.clone(), extent.clone(), func.steps.clone());
    if output.is_empty() {
        return output;
    }
    let expr = func.expr.resolve(inputs, params);

    // Split the outermost dimension into parallel chunks when requested.
    let outer_extent = extent[0];
    let workers = if schedule.parallel {
        schedule.threads.max(1).min(outer_extent.max(1))
    } else {
        1
    };

    if workers <= 1 {
        realize_chunk(func, &expr, schedule, region, 0, outer_extent, &mut output);
        return output;
    }

    // Each worker fills a band-sized local buffer (the buffer's own origin
    // is shifted into the band, so logical coordinates still map correctly);
    // bands are stitched afterwards (the output is row-major with the outer
    // dimension slowest, so bands are contiguous).
    let chunk = outer_extent.div_ceil(workers);
    let band_len: usize = extent[1..].iter().product::<usize>().max(1);
    let mut bands: Vec<(usize, Vec<f64>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let start = w * chunk;
            let end = ((w + 1) * chunk).min(outer_extent);
            if start >= end {
                continue;
            }
            let mut band_origin = origin.clone();
            band_origin[0] += start as i64 * func.steps[0];
            let mut band_extent = extent.clone();
            band_extent[0] = end - start;
            let steps = func.steps.clone();
            let expr = &expr;
            let handle = scope.spawn(move || {
                let mut local = Buffer::strided(band_origin, band_extent, steps);
                realize_chunk(func, expr, schedule, region, start, end, &mut local);
                (start, local.data)
            });
            handles.push(handle);
        }
        for handle in handles {
            let (start, data) = handle.join().expect("worker thread panicked");
            bands.push((start, data));
        }
    });
    for (start, data) in bands {
        let offset = start * band_len;
        output.data[offset..offset + data.len()].copy_from_slice(&data);
    }
    output
}

/// Fills trip-index rows `outer_start..outer_end` of the output, iterating
/// tiles in the remaining dimensions. All iteration happens in counter
/// space; logical coordinates are recovered through the function's steps
/// only at the evaluation site.
fn realize_chunk(
    func: &Func,
    expr: &Resolved<'_>,
    schedule: &Schedule,
    region: &Region,
    outer_start: usize,
    outer_end: usize,
    output: &mut Buffer,
) {
    if outer_start >= outer_end {
        return;
    }
    let rank = func.rank;
    let lo: Vec<i64> = region.iter().map(|(l, _)| *l).collect();
    // The counter-space box of this band: the outermost dimension is
    // restricted to the worker's rows, the others span their trip counts.
    let mut band_lo = vec![0i64; rank];
    band_lo[0] = outer_start as i64;
    let band_hi: Vec<i64> = (0..rank)
        .map(|d| match d {
            0 => outer_end as i64 - 1,
            _ => trip_count(region[d].0, region[d].1, func.steps[d]) as i64 - 1,
        })
        .collect();
    let tile: Vec<i64> = (0..rank)
        .map(|d| schedule.tile.get(d).copied().unwrap_or(1).max(1) as i64)
        .collect();
    let ones = vec![1i64; rank];

    let mut tile_origin = band_lo.clone();
    let mut point = vec![0i64; rank];
    loop {
        let tile_hi: Vec<i64> = (0..rank)
            .map(|d| (tile_origin[d] + tile[d] - 1).min(band_hi[d]))
            .collect();
        let mut t = tile_origin.clone();
        loop {
            for d in 0..rank {
                point[d] = lo[d] + t[d] * func.steps[d];
            }
            output.set(&point, expr.eval(&point));
            if !advance(&mut t, &tile_origin, &tile_hi, &ones) {
                break;
            }
        }
        if !advance(&mut tile_origin, &band_lo, &band_hi, &tile) {
            break;
        }
    }
}

/// Steps an N-d counter through the box `lo..=hi` by `by` per dimension,
/// last dimension fastest. Returns `false` (with the counter back at `lo`)
/// once every point has been visited.
fn advance(counter: &mut [i64], lo: &[i64], hi: &[i64], by: &[i64]) -> bool {
    for d in (0..counter.len()).rev() {
        counter[d] += by[d];
        if counter[d] <= hi[d] {
            return true;
        }
        counter[d] = lo[d];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{HExpr, HIndex};

    fn blur() -> Func {
        Func::new(
            "blur",
            2,
            HExpr::Mul(
                Box::new(HExpr::Const(0.5)),
                Box::new(HExpr::Add(
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
                )),
            ),
        )
    }

    fn reference(b: &Buffer, region: &Region) -> Buffer {
        Buffer::from_fn(
            region.iter().map(|(l, _)| *l).collect(),
            region.iter().map(|(l, h)| (h - l + 1) as usize).collect(),
            |ix| 0.5 * (b.get_clamped(&[ix[0] - 1, ix[1]]) + b.get_clamped(&[ix[0], ix[1]])),
        )
    }

    #[test]
    fn naive_and_tiled_and_parallel_schedules_agree() {
        let func = blur();
        let b = Buffer::from_fn(vec![0, 0], vec![20, 17], |ix| (3 * ix[0] + ix[1]) as f64);
        let mut inputs = HashMap::new();
        inputs.insert("b".to_string(), &b);
        let params = HashMap::new();
        let region: Region = vec![(1, 19), (0, 16)];
        let expected = reference(&b, &region);

        let naive = realize(&func, &Schedule::naive(2), &region, &inputs, &params);
        assert_eq!(naive, expected);

        let tiled = realize(
            &func,
            &Schedule {
                tile: vec![4, 5],
                parallel: false,
                threads: 1,
            },
            &region,
            &inputs,
            &params,
        );
        assert_eq!(tiled, expected);

        let parallel = realize(
            &func,
            &Schedule {
                tile: vec![3, 8],
                parallel: true,
                threads: 4,
            },
            &region,
            &inputs,
            &params,
        );
        assert_eq!(parallel, expected);
    }

    #[test]
    fn strided_funcs_realize_only_their_progression_points() {
        // f(x) = b(x-1) + b(x) realized at x = 1, 3, 5, … ≤ 18.
        let expr = HExpr::Add(
            Box::new(HExpr::Input {
                image: "b".into(),
                index: vec![HIndex::VarOffset { var: 0, offset: -1 }],
            }),
            Box::new(HExpr::Input {
                image: "b".into(),
                index: vec![HIndex::VarOffset { var: 0, offset: 0 }],
            }),
        );
        let func = Func::strided("half", 1, vec![2], expr);
        let b = Buffer::from_fn(vec![0], vec![20], |ix| (ix[0] * ix[0]) as f64);
        let mut inputs = HashMap::new();
        inputs.insert("b".to_string(), &b);
        let params = HashMap::new();
        let region: Region = vec![(1, 18)];

        for schedule in [
            Schedule::naive(1),
            Schedule {
                tile: vec![4],
                parallel: true,
                threads: 3,
            },
        ] {
            let out = realize(&func, &schedule, &region, &inputs, &params);
            // Points 1, 3, …, 17: nine stored values.
            assert_eq!(out.len(), 9, "schedule {schedule:?}");
            assert_eq!(out.step, vec![2]);
            for k in 0..9i64 {
                let x = 1 + 2 * k;
                let expected = ((x - 1) * (x - 1) + x * x) as f64;
                assert_eq!(out.get(&[x]), Some(expected), "x = {x}");
            }
            // Unrealized (even) points are not addressable.
            assert_eq!(out.get(&[2]), None);
        }
    }

    #[test]
    fn params_missing_names_division_calls_and_strided_inputs_evaluate() {
        let read = |image: &str, offset: i64| {
            Box::new(HExpr::Input {
                image: image.into(),
                index: vec![HIndex::VarOffset { var: 0, offset }],
            })
        };
        let call = |name: &str, args: Vec<HExpr>| {
            Box::new(HExpr::Call {
                name: name.into(),
                args,
            })
        };
        let param = |name: &str| Box::new(HExpr::Param(name.into()));
        let c = |v: f64| Box::new(HExpr::Const(v));
        // b(x) = x + 1 on 0..8; s stores 10, 20, 30, 40 at x = 0, 2, 4, 6.
        let b = Buffer::from_fn(vec![0], vec![8], |ix| (ix[0] + 1) as f64);
        let mut s = Buffer::strided(vec![0], vec![4], vec![2]);
        for (k, v) in [10.0, 20.0, 30.0, 40.0].into_iter().enumerate() {
            s.set(&[2 * k as i64], v);
        }
        let inputs = HashMap::from([("b".to_string(), &b), ("s".to_string(), &s)]);
        let params = HashMap::from([("k".to_string(), 2.5)]);
        let cases: Vec<(HExpr, [f64; 8])> = vec![
            (
                HExpr::Mul(param("k"), read("b", 0)),
                [2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0],
            ),
            (
                HExpr::Add(param("absent"), read("b", 0)),
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            ),
            (HExpr::Add(read("nope", 0), c(1.0)), [1.0; 8]),
            (
                HExpr::Div(
                    read("b", 0),
                    Box::new(HExpr::Sub(read("b", 0), read("b", 0))),
                ),
                [0.0; 8],
            ),
            (
                HExpr::Div(read("b", 0), c(2.0)),
                [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            ),
            (
                *call("max", vec![*read("b", -1), HExpr::Const(4.0)]),
                [4.0, 4.0, 4.0, 4.0, 4.0, 5.0, 6.0, 7.0],
            ),
            (*call("frob", vec![*read("b", 0)]), [0.0; 8]),
            (*call("min", vec![HExpr::Const(1.0); 3]), [0.0; 8]),
            (
                *read("s", 1),
                [10.0, 20.0, 20.0, 30.0, 30.0, 40.0, 40.0, 40.0],
            ),
        ];
        let region: Region = vec![(0, 7)];
        for (expr, expected) in cases {
            let func = Func::new("f", 1, expr);
            for schedule in [Schedule::naive(1), Schedule::default_tuned(1, 2)] {
                let out = realize(&func, &schedule, &region, &inputs, &params);
                assert_eq!(out.data, expected, "{} under {schedule:?}", func.expr);
            }
        }
    }

    #[test]
    fn empty_region_produces_empty_buffer() {
        let func = blur();
        let b = Buffer::new(vec![0, 0], vec![4, 4]);
        let mut inputs = HashMap::new();
        inputs.insert("b".to_string(), &b);
        let out = realize(
            &func,
            &Schedule::naive(2),
            &vec![(3, 2), (0, 3)],
            &inputs,
            &HashMap::new(),
        );
        assert!(out.is_empty());
    }
}
