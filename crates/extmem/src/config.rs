//! I/O-model configuration: block size `B` and memory budget `M`.

/// Parameters of the external-memory model.
///
/// The paper assumes `2·B ≤ M < ‖G‖`: at least two blocks fit in memory, but
/// the graph does not. Every algorithm in this workspace sizes its in-memory
/// buffers (sort runs, merge fan-in, dictionaries, semi-external node arrays)
/// from this struct, so shrinking `mem_budget` genuinely changes the I/O
/// behaviour — which is exactly the knob Figures 7 and 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Disk block size `B` in bytes. The paper's testbed used 256 KiB; tests
    /// use small blocks to exercise multi-block code paths.
    pub block_size: usize,
    /// Main-memory size `M` in bytes available to an algorithm.
    pub mem_budget: usize,
}

impl IoConfig {
    /// Creates a configuration, enforcing the model constraint `M ≥ 2·B`.
    ///
    /// # Panics
    /// Panics if `block_size == 0` or `mem_budget < 2 * block_size`.
    pub fn new(block_size: usize, mem_budget: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            mem_budget >= 2 * block_size,
            "I/O model requires M >= 2B (got M={mem_budget}, B={block_size})"
        );
        IoConfig {
            block_size,
            mem_budget,
        }
    }

    /// A configuration with small blocks, for unit tests that must cross many
    /// block boundaries with little data.
    pub fn small_for_tests() -> Self {
        IoConfig::new(1 << 12, 1 << 16)
    }

    /// Default laptop-scale configuration: 64 KiB blocks, 64 MiB of memory.
    pub fn default_bench() -> Self {
        IoConfig::new(1 << 16, 64 << 20)
    }

    /// Maximum number of runs merged at once by the external sort: one input
    /// buffer per run plus one output buffer, all block-sized.
    pub fn sort_fan_in(&self) -> usize {
        (self.mem_budget / self.block_size).saturating_sub(1).max(2)
    }

    /// How many records of `record_size` bytes fit into the memory budget.
    pub fn records_in_memory(&self, record_size: usize) -> usize {
        (self.mem_budget / record_size.max(1)).max(1)
    }

    /// Number of blocks the budget spans (used by caches/dictionaries).
    pub fn blocks_in_memory(&self) -> usize {
        (self.mem_budget / self.block_size).max(2)
    }
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig::default_bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_reserves_output_buffer() {
        let cfg = IoConfig::new(1024, 10 * 1024);
        assert_eq!(cfg.sort_fan_in(), 9);
    }

    #[test]
    fn fan_in_never_below_two() {
        let cfg = IoConfig::new(1024, 2048);
        assert_eq!(cfg.sort_fan_in(), 2);
    }

    #[test]
    #[should_panic(expected = "M >= 2B")]
    fn rejects_tiny_memory() {
        let _ = IoConfig::new(4096, 4096);
    }

    #[test]
    fn records_in_memory_rounds_down_but_is_positive() {
        let cfg = IoConfig::new(1024, 2048);
        assert_eq!(cfg.records_in_memory(1000), 2);
        assert_eq!(cfg.records_in_memory(1 << 30), 1);
    }
}
