//! PCIe transfer timing with chunking.
//!
//! GS-Scale partitions forwarded parameters into 32 MB chunks so that the
//! CPU-side optimizer update of chunk `k+1` overlaps with the host-to-device
//! copy of chunk `k` (Figure 9c of the paper). [`TransferModel`] provides
//! both whole-transfer timing and the chunk decomposition the pipelined
//! trainer schedules individually.

/// Default chunk size used for pipelined host-to-device parameter transfers
/// (32 MB, as in the paper).
pub const DEFAULT_CHUNK_BYTES: u64 = 32 * 1024 * 1024;

/// Fixed per-transfer latency (driver + DMA setup), seconds.
pub const TRANSFER_LATENCY: f64 = 10.0e-6;

/// Models the PCIe link between host and device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Link bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Chunk size for pipelined transfers, bytes.
    pub chunk_bytes: u64,
}

impl TransferModel {
    /// Creates a transfer model with the default 32 MB chunking.
    pub fn new(bandwidth: f64) -> Self {
        Self {
            bandwidth,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Time to move `bytes` across the link as a single transfer.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        bytes as f64 / self.bandwidth + TRANSFER_LATENCY
    }

    /// Splits a payload into chunk sizes for pipelined transfer (all chunks
    /// are `chunk_bytes` except possibly the last).
    pub fn chunks(&self, bytes: u64) -> Vec<u64> {
        if bytes == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut remaining = bytes;
        while remaining > 0 {
            let c = remaining.min(self.chunk_bytes);
            out.push(c);
            remaining -= c;
        }
        out
    }

    /// Total time of a chunked transfer executed back-to-back (no overlap):
    /// useful as an upper bound and in tests.
    pub fn chunked_transfer_time(&self, bytes: u64) -> f64 {
        self.chunks(bytes)
            .iter()
            .map(|&c| self.transfer_time(c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = TransferModel::new(16.0e9);
        let t1 = m.transfer_time(16_000_000_000);
        assert!((t1 - (1.0 + TRANSFER_LATENCY)).abs() < 1e-9);
        assert_eq!(m.transfer_time(0), 0.0);
    }

    #[test]
    fn chunks_cover_payload_exactly() {
        let m = TransferModel::new(16.0e9);
        let total = 100 * 1024 * 1024 + 123;
        let chunks = m.chunks(total);
        assert_eq!(chunks.iter().sum::<u64>(), total);
        assert!(chunks[..chunks.len() - 1]
            .iter()
            .all(|&c| c == DEFAULT_CHUNK_BYTES));
        assert_eq!(chunks.len(), 4);
    }

    #[test]
    fn small_payload_is_one_chunk() {
        let m = TransferModel::new(16.0e9);
        assert_eq!(m.chunks(1000), vec![1000]);
        assert!(m.chunks(0).is_empty());
    }

    #[test]
    fn chunked_time_exceeds_single_transfer_by_latency_only() {
        let m = TransferModel::new(32.0e9);
        let bytes = 96 * 1024 * 1024;
        let single = m.transfer_time(bytes);
        let chunked = m.chunked_transfer_time(bytes);
        let extra_latency = (m.chunks(bytes).len() as f64 - 1.0) * TRANSFER_LATENCY;
        assert!((chunked - single - extra_latency).abs() < 1e-9);
    }
}
