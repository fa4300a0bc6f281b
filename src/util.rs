//! Small shared helpers for the CLI, the examples and embedding
//! applications.

use ce_extmem::PhysSnapshot;

/// The one-line storage/physical-counter report shared by every `--stats`
/// flag (`scc run`, `scc index build`, `scc index query`): buffer-pool size
/// in frames, physical transfers and the pool hit rate.
///
/// One formatter keeps the three subcommands' stats output identical in
/// shape, so scripts can parse any of them the same way.
pub fn storage_stats(cache_blocks: usize, phys: PhysSnapshot) -> String {
    format!("storage: {cache_blocks} cache blocks; {phys}")
}

/// Parses a byte size with an optional binary suffix: `"64"`, `"64K"`,
/// `"64M"`, `"4G"` (suffixes are case-insensitive, powers of 1024).
///
/// One implementation for every `scc` subcommand and example — bare
/// suffixes (`"K"`), non-digits, signs and overflowing products are
/// rejected with a message naming the offending input. Signs are rejected
/// uniformly: `usize::from_str` would happily take `"+4K"` while `"-4K"`
/// fails, and a size flag that accepts one sign but not the other reads
/// like a parser bug, so any non-digit start is refused.
///
/// ```
/// use contract_expand::util::parse_size;
/// assert_eq!(parse_size("64K"), Ok(64 << 10));
/// assert_eq!(parse_size("3m"), Ok(3 << 20));
/// assert_eq!(parse_size("512"), Ok(512));
/// assert!(parse_size("K").unwrap_err().contains("missing digits"));
/// assert!(parse_size("+4K").unwrap_err().contains("bad size"));
/// assert!(parse_size("-4K").unwrap_err().contains("bad size"));
/// ```
pub fn parse_size(s: &str) -> Result<usize, String> {
    let (digits, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1usize << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    if digits.is_empty() {
        return Err(format!("bad size {s:?}: missing digits before the suffix"));
    }
    if !digits.starts_with(|c: char| c.is_ascii_digit()) {
        return Err(format!("bad size {s:?}: must start with a digit"));
    }
    digits
        .parse::<usize>()
        .map_err(|e| format!("bad size {s:?}: {e}"))
        .and_then(|v| {
            v.checked_mul(mult)
                .ok_or_else(|| format!("bad size {s:?}: overflows"))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_and_without_suffixes() {
        assert_eq!(parse_size("0"), Ok(0));
        assert_eq!(parse_size("123"), Ok(123));
        assert_eq!(parse_size("2K"), Ok(2048));
        assert_eq!(parse_size("2k"), Ok(2048));
        assert_eq!(parse_size("64M"), Ok(64 << 20));
        assert_eq!(parse_size("1G"), Ok(1 << 30));
    }

    #[test]
    fn storage_stats_reports_pool_and_hit_rate() {
        use ce_extmem::{DiskEnv, EnvOptions, IoConfig};
        let cfg = IoConfig::new(256, 4 << 10);
        let env = DiskEnv::new_temp_with(cfg, EnvOptions::pooled(&cfg)).unwrap();
        let line = storage_stats(env.options().cache_blocks, env.phys());
        assert!(line.starts_with("storage: 16 cache blocks; "), "{line}");
        assert!(line.contains("cache hits"), "{line}");
        assert!(line.contains("hit rate"), "{line}");
    }

    #[test]
    fn bad_sizes_are_rejected_with_clear_messages() {
        for bare in ["K", "m", "G"] {
            let err = parse_size(bare).unwrap_err();
            assert!(err.contains("missing digits"), "{bare}: {err}");
        }
        assert!(parse_size("").unwrap_err().contains("missing digits"));
        assert!(parse_size("lots").unwrap_err().contains("bad size"));
        assert!(parse_size("12x").unwrap_err().contains("bad size"));
        // Signs are rejected uniformly: `+` parses as a usize but not as a
        // size, and ` 4K` (stray whitespace) is no better.
        for signed in ["-4K", "+4K", "+4", "-4", " 4K"] {
            let err = parse_size(signed).unwrap_err();
            assert!(err.contains("bad size"), "{signed}: {err}");
        }
        assert!(parse_size("18446744073709551615K")
            .unwrap_err()
            .contains("overflows"));
    }
}
