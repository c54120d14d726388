//! Capacity-checked memory pools with per-category accounting.
//!
//! Every trainer allocates its tensors (parameters, gradients, optimizer
//! state, activations) from a [`MemoryPool`] that models the corresponding
//! physical memory. The pool refuses allocations beyond its capacity —
//! producing the OOM failures of the GPU-only baseline in Figure 11 — and
//! tracks the peak usage per category, which is what Figures 3b, 12, 15a and
//! 16a report.

use std::collections::BTreeMap;

use gs_core::error::{Error, Result};

/// What a memory allocation holds, mirroring the breakdown in Figure 3b of
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryCategory {
    /// Full Gaussian parameters.
    Parameters,
    /// The GPU-resident geometric attributes kept by selective offloading.
    GeometricParameters,
    /// Gradients.
    Gradients,
    /// Optimizer state (momentum and variance).
    OptimizerState,
    /// Activations of the forward/backward pass (scales with pixels).
    Activations,
    /// Anything else (id lists, staging buffers, ...).
    Other,
}

impl MemoryCategory {
    /// All categories, in display order.
    pub const ALL: [MemoryCategory; 6] = [
        MemoryCategory::Parameters,
        MemoryCategory::GeometricParameters,
        MemoryCategory::Gradients,
        MemoryCategory::OptimizerState,
        MemoryCategory::Activations,
        MemoryCategory::Other,
    ];

    /// Short human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            MemoryCategory::Parameters => "parameters",
            MemoryCategory::GeometricParameters => "geometric parameters",
            MemoryCategory::Gradients => "gradients",
            MemoryCategory::OptimizerState => "optimizer state",
            MemoryCategory::Activations => "activations",
            MemoryCategory::Other => "other",
        }
    }
}

/// A named, capacity-limited memory pool with per-category usage accounting.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    name: String,
    capacity: u64,
    used: BTreeMap<MemoryCategory, u64>,
    peak_total: u64,
    peak_by_category: BTreeMap<MemoryCategory, u64>,
}

impl MemoryPool {
    /// Creates an empty pool with the given capacity in bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Self {
            name: name.into(),
            capacity,
            used: BTreeMap::new(),
            peak_total: 0,
            peak_by_category: BTreeMap::new(),
        }
    }

    /// The pool's name (e.g. `"gpu"` or `"host"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated across all categories.
    pub fn used_total(&self) -> u64 {
        self.used.values().sum()
    }

    /// Bytes currently allocated in one category.
    pub fn used(&self, category: MemoryCategory) -> u64 {
        self.used.get(&category).copied().unwrap_or(0)
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used_total())
    }

    /// Highest total usage observed since creation (or the last reset).
    pub fn peak_total(&self) -> u64 {
        self.peak_total
    }

    /// Highest usage observed per category.
    pub fn peak(&self, category: MemoryCategory) -> u64 {
        self.peak_by_category.get(&category).copied().unwrap_or(0)
    }

    /// Peak usage breakdown over all categories (category, bytes).
    pub fn peak_breakdown(&self) -> Vec<(MemoryCategory, u64)> {
        MemoryCategory::ALL
            .iter()
            .map(|&c| (c, self.peak(c)))
            .collect()
    }

    /// Allocates `bytes` in `category`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if the allocation would exceed the
    /// pool's capacity; the pool is left unchanged in that case.
    pub fn alloc(&mut self, category: MemoryCategory, bytes: u64) -> Result<()> {
        let new_total = self.used_total() + bytes;
        if new_total > self.capacity {
            return Err(self.out_of_memory(bytes));
        }
        *self.used.entry(category).or_insert(0) += bytes;
        self.peak_total = self.peak_total.max(new_total);
        let cat_used = self.used(category);
        let entry = self.peak_by_category.entry(category).or_insert(0);
        *entry = (*entry).max(cat_used);
        Ok(())
    }

    /// Allocates every `(category, bytes)` request, or none of them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] (reporting the combined size) if the
    /// requests together would exceed the pool's capacity; usage and peaks
    /// are left unchanged in that case.
    pub fn alloc_all(&mut self, requests: &[(MemoryCategory, u64)]) -> Result<()> {
        let bytes: u64 = requests.iter().map(|&(_, bytes)| bytes).sum();
        if self.used_total() + bytes > self.capacity {
            return Err(self.out_of_memory(bytes));
        }
        for &(category, bytes) in requests {
            self.alloc(category, bytes)?;
        }
        Ok(())
    }

    fn out_of_memory(&self, requested: u64) -> Error {
        Error::OutOfMemory {
            device: self.name.clone(),
            requested_bytes: requested as usize,
            available_bytes: self.available() as usize,
            capacity_bytes: self.capacity as usize,
        }
    }

    /// Frees `bytes` from `category` (clamped at zero).
    pub fn free(&mut self, category: MemoryCategory, bytes: u64) {
        if let Some(v) = self.used.get_mut(&category) {
            *v = v.saturating_sub(bytes);
        }
    }

    /// Frees everything allocated in `category`.
    pub fn free_all(&mut self, category: MemoryCategory) {
        self.used.remove(&category);
    }

    /// Adjusts the allocation of `category` to exactly `bytes`, allocating or
    /// freeing the difference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] if growing the category would exceed the
    /// capacity.
    pub fn set(&mut self, category: MemoryCategory, bytes: u64) -> Result<()> {
        let current = self.used(category);
        if bytes >= current {
            self.alloc(category, bytes - current)
        } else {
            self.free(category, current - bytes);
            Ok(())
        }
    }

    /// Clears all usage and peak statistics.
    pub fn reset(&mut self) {
        self.used.clear();
        self.peak_total = 0;
        self.peak_by_category.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_track_usage() {
        let mut pool = MemoryPool::new("gpu", 1000);
        pool.alloc(MemoryCategory::Parameters, 400).unwrap();
        pool.alloc(MemoryCategory::Gradients, 300).unwrap();
        assert_eq!(pool.used_total(), 700);
        assert_eq!(pool.available(), 300);
        pool.free(MemoryCategory::Gradients, 300);
        assert_eq!(pool.used_total(), 400);
        assert_eq!(pool.peak_total(), 700);
    }

    #[test]
    fn over_capacity_allocation_fails_without_side_effects() {
        let mut pool = MemoryPool::new("gpu", 100);
        pool.alloc(MemoryCategory::Parameters, 90).unwrap();
        let err = pool.alloc(MemoryCategory::Activations, 20).unwrap_err();
        assert!(err.is_oom());
        assert_eq!(pool.used_total(), 90);
        match err {
            Error::OutOfMemory {
                device,
                requested_bytes,
                available_bytes,
                ..
            } => {
                assert_eq!(device, "gpu");
                assert_eq!(requested_bytes, 20);
                assert_eq!(available_bytes, 10);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn alloc_all_charges_every_request_or_none() {
        let mut pool = MemoryPool::new("gpu", 100);
        pool.alloc(MemoryCategory::OptimizerState, 30).unwrap();
        let fits = [
            (MemoryCategory::Parameters, 40),
            (MemoryCategory::Gradients, 30),
        ];
        let too_big = [
            (MemoryCategory::Parameters, 40),
            (MemoryCategory::Gradients, 31),
        ];
        let err = pool.alloc_all(&too_big).unwrap_err();
        assert!(err.is_oom());
        assert_eq!(pool.used_total(), 30);
        assert_eq!(pool.peak_total(), 30);
        assert_eq!(pool.peak(MemoryCategory::Parameters), 0);
        pool.alloc_all(&fits).unwrap();
        assert_eq!(pool.used_total(), 100);
        assert_eq!(pool.used(MemoryCategory::Gradients), 30);
    }

    #[test]
    fn peak_per_category_is_tracked() {
        let mut pool = MemoryPool::new("gpu", 1000);
        pool.alloc(MemoryCategory::Activations, 500).unwrap();
        pool.free(MemoryCategory::Activations, 500);
        pool.alloc(MemoryCategory::Activations, 200).unwrap();
        assert_eq!(pool.peak(MemoryCategory::Activations), 500);
        assert_eq!(pool.used(MemoryCategory::Activations), 200);
        let breakdown = pool.peak_breakdown();
        assert_eq!(breakdown.len(), MemoryCategory::ALL.len());
    }

    #[test]
    fn set_adjusts_up_and_down() {
        let mut pool = MemoryPool::new("gpu", 1000);
        pool.set(MemoryCategory::Parameters, 600).unwrap();
        assert_eq!(pool.used(MemoryCategory::Parameters), 600);
        pool.set(MemoryCategory::Parameters, 200).unwrap();
        assert_eq!(pool.used(MemoryCategory::Parameters), 200);
        assert!(pool.set(MemoryCategory::Parameters, 2000).is_err());
        assert_eq!(pool.used(MemoryCategory::Parameters), 200);
    }

    #[test]
    fn free_more_than_allocated_clamps_to_zero() {
        let mut pool = MemoryPool::new("gpu", 100);
        pool.alloc(MemoryCategory::Other, 10).unwrap();
        pool.free(MemoryCategory::Other, 50);
        assert_eq!(pool.used(MemoryCategory::Other), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pool = MemoryPool::new("gpu", 100);
        pool.alloc(MemoryCategory::Parameters, 60).unwrap();
        pool.reset();
        assert_eq!(pool.used_total(), 0);
        assert_eq!(pool.peak_total(), 0);
    }
}
