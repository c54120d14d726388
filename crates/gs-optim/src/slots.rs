//! The id → packed-slot table the optimizers read sparse gradients through.
//!
//! A [`SparseGrads`](gs_core::gaussian::SparseGrads) names the global index
//! of each packed row; an optimizer walking Gaussians in index order needs
//! the inverse. The table is kept between steps and only the entries a step
//! set are reset afterwards, so a step allocates and clears nothing
//! proportional to the model size.

/// Marks a Gaussian that has no packed row.
const ABSENT: u32 = u32::MAX;

/// Reusable inverse of a sparse gradient's id list. Between
/// [`SlotTable::fill`] and the matching [`SlotTable::clear`] it maps a
/// Gaussian to its packed row; outside that window every entry is absent.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable {
    slots: Vec<u32>,
}

impl SlotTable {
    /// Points each of `ids` at its position in the list (the last one, if an
    /// id is listed twice) over a model of `n` Gaussians, and returns how
    /// many distinct ids there are.
    ///
    /// # Panics
    ///
    /// Panics, before changing anything, if an id is not below `n`.
    pub(crate) fn fill(&mut self, n: usize, ids: &[u32]) -> usize {
        assert!(
            ids.iter().all(|&id| (id as usize) < n),
            "gaussian id out of range"
        );
        assert!(ids.len() < ABSENT as usize, "too many packed rows");
        // Every entry is absent here, so this only tracks the model's size.
        self.slots.resize(n, ABSENT);
        let mut distinct = 0;
        for (k, &id) in ids.iter().enumerate() {
            let slot = &mut self.slots[id as usize];
            distinct += usize::from(*slot == ABSENT);
            *slot = k as u32;
        }
        distinct
    }

    /// The packed row of Gaussian `i`, if the filled list names it.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<usize> {
        let slot = self.slots[i];
        (slot != ABSENT).then_some(slot as usize)
    }

    /// Undoes [`SlotTable::fill`] for the same `ids`.
    pub(crate) fn clear(&mut self, ids: &[u32]) {
        for &id in ids {
            self.slots[id as usize] = ABSENT;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_maps_ids_and_clear_restores_absence() {
        let mut table = SlotTable::default();
        assert_eq!(table.fill(6, &[4, 1, 4]), 2);
        assert_eq!(table.get(1), Some(1));
        assert_eq!(table.get(4), Some(2));
        assert_eq!(table.get(0), None);
        table.clear(&[4, 1, 4]);
        // A model that shrank and regrew still sees only absent entries.
        assert_eq!(table.fill(3, &[]), 0);
        assert_eq!(table.fill(8, &[7]), 1);
        assert!((0..7).all(|i| table.get(i).is_none()));
    }

    #[test]
    #[should_panic(expected = "gaussian id out of range")]
    fn out_of_range_id_is_rejected_before_any_write() {
        SlotTable::default().fill(2, &[0, 2]);
    }
}
