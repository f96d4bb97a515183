//! Dense multidimensional buffers with logical origins, the data interface
//! between generated stencil code and its caller (the paper's "glue code"
//! converts Fortran arrays into exactly this shape).

/// A row-major buffer of `f64` values with a logical origin per dimension
/// (so Fortran-style `imin:imax` arrays map directly). A dimension may carry
/// a logical *step*: the buffer then stores only the points of the
/// arithmetic progression `origin, origin+step, …` (densely packed), which
/// is how the realization of a strided `Func` is represented — element
/// `(origin + k·step)` lives at packed index `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    /// Logical origin (minimum index) of each dimension.
    pub origin: Vec<i64>,
    /// Extent (number of stored points) of each dimension.
    pub extent: Vec<usize>,
    /// Logical distance between consecutive stored points, per dimension
    /// (`1` = dense).
    pub step: Vec<i64>,
    /// Element storage, last dimension fastest.
    pub data: Vec<f64>,
}

impl Buffer {
    /// Creates a zero-filled dense buffer.
    pub fn new(origin: Vec<i64>, extent: Vec<usize>) -> Buffer {
        let step = vec![1; origin.len()];
        Buffer::strided(origin, extent, step)
    }

    /// Creates a zero-filled buffer over a strided logical domain.
    ///
    /// # Panics
    ///
    /// Panics when the step vector's length does not match the rank or any
    /// step is not positive.
    pub fn strided(origin: Vec<i64>, extent: Vec<usize>, step: Vec<i64>) -> Buffer {
        assert_eq!(step.len(), origin.len(), "one step per dimension");
        assert!(step.iter().all(|s| *s > 0), "steps must be positive");
        let len = extent.iter().product();
        Buffer {
            origin,
            extent,
            step,
            data: vec![0.0; len],
        }
    }

    /// Creates a dense buffer with contents produced by `f(logical indices)`.
    pub fn from_fn(
        origin: Vec<i64>,
        extent: Vec<usize>,
        mut f: impl FnMut(&[i64]) -> f64,
    ) -> Buffer {
        let mut buf = Buffer::new(origin.clone(), extent.clone());
        let mut idx = origin.clone();
        let len = buf.data.len();
        for flat in 0..len {
            buf.data[flat] = f(&idx);
            // Advance the logical index, last dimension fastest.
            for d in (0..extent.len()).rev() {
                idx[d] += 1;
                if idx[d] < origin[d] + extent[d] as i64 {
                    break;
                }
                idx[d] = origin[d];
            }
        }
        buf
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.extent.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total size in bytes (used by the GPU transfer model).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Flat offset for a logical index, or `None` when out of range or (for
    /// a strided dimension) not a stored point of the progression.
    pub fn offset(&self, indices: &[i64]) -> Option<usize> {
        if indices.len() != self.rank() {
            return None;
        }
        let mut off = 0usize;
        for (d, &ix) in indices.iter().enumerate() {
            let rel = ix - self.origin[d];
            let step = self.step[d];
            if rel < 0 || rel % step != 0 {
                return None;
            }
            let packed = (rel / step) as usize;
            if packed >= self.extent[d] {
                return None;
            }
            off = off * self.extent[d] + packed;
        }
        Some(off)
    }

    /// Reads the element at a logical index.
    pub fn get(&self, indices: &[i64]) -> Option<f64> {
        self.offset(indices).map(|o| self.data[o])
    }

    /// Reads without bounds checks beyond clamping (used by the runtime on
    /// halo reads; lifted kernels never read out of range by construction).
    /// On a strided buffer the index is additionally snapped down to the
    /// nearest stored progression point, so halo reads never miss.
    pub fn get_clamped(&self, indices: &[i64]) -> f64 {
        self.clamped_offset(indices.iter().copied())
            .map_or(0.0, |at| self.data[at])
    }

    /// The flat offset [`Buffer::get_clamped`] reads, computed without
    /// allocating: each index is clamped into its dimension and snapped
    /// down to a stored point. `None` when the rank differs or the buffer
    /// is empty.
    pub fn clamped_offset(&self, indices: impl ExactSizeIterator<Item = i64>) -> Option<usize> {
        if indices.len() != self.rank() {
            return None;
        }
        let mut off = 0usize;
        for (d, ix) in indices.enumerate() {
            let (origin, step, extent) = (self.origin[d], self.step[d], self.extent[d]);
            if extent == 0 {
                return None;
            }
            let hi = origin + (extent as i64 - 1) * step;
            let packed = (ix.max(origin).min(hi) - origin) / step;
            off = off * extent + packed as usize;
        }
        Some(off)
    }

    /// Writes the element at a logical index; returns `false` when out of
    /// range.
    pub fn set(&mut self, indices: &[i64], value: f64) -> bool {
        match self.offset(indices) {
            Some(o) => {
                self.data[o] = value;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_origins_are_respected() {
        let buf = Buffer::from_fn(vec![-1, 2], vec![3, 4], |ix| (ix[0] * 10 + ix[1]) as f64);
        assert_eq!(buf.len(), 12);
        assert_eq!(buf.get(&[-1, 2]), Some(-8.0));
        assert_eq!(buf.get(&[1, 5]), Some(15.0));
        assert_eq!(buf.get(&[2, 2]), None);
        assert_eq!(buf.get_clamped(&[5, 5]), 15.0);
    }

    #[test]
    fn strided_buffers_store_only_progression_points() {
        let mut buf = Buffer::strided(vec![2], vec![4], vec![2]);
        // Logical points 2, 4, 6, 8 are stored; odd points are not.
        assert!(buf.set(&[2], 1.0));
        assert!(buf.set(&[8], 4.0));
        assert!(!buf.set(&[3], 9.0));
        assert!(!buf.set(&[10], 9.0));
        assert_eq!(buf.get(&[2]), Some(1.0));
        assert_eq!(buf.get(&[8]), Some(4.0));
        assert_eq!(buf.get(&[5]), None);
        assert_eq!(buf.len(), 4);
        // Clamping lands on the last stored point.
        assert_eq!(buf.get_clamped(&[100]), 4.0);
        // An in-range but unaligned index snaps down to the stored point
        // below it instead of silently reading 0.
        assert_eq!(buf.get_clamped(&[3]), 1.0);
        assert_eq!(buf.get_clamped(&[9]), 4.0);
        assert_eq!(buf.get_clamped(&[1]), 1.0);
    }

    #[test]
    fn set_and_size() {
        let mut buf = Buffer::new(vec![0], vec![4]);
        assert!(buf.set(&[3], 7.0));
        assert!(!buf.set(&[4], 7.0));
        assert_eq!(buf.get(&[3]), Some(7.0));
        assert_eq!(buf.size_bytes(), 32);
    }
}
