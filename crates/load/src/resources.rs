//! Process resource sampling: open file descriptors and resident set
//! size, read from `/proc/self` on Linux. On platforms without procfs
//! every sample is `None` and the gates that consume them are skipped —
//! the load run still measures latency.

/// One point-in-time resource sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceSample {
    /// Open file descriptors (`/proc/self/fd` entry count).
    pub fds: Option<u64>,
    /// Resident set size in KiB (`VmRSS` from `/proc/self/status`).
    pub rss_kb: Option<u64>,
}

/// Take a sample now.
pub fn sample() -> ResourceSample {
    ResourceSample {
        fds: fd_count(),
        rss_kb: rss_kb(),
    }
}

fn fd_count() -> Option<u64> {
    // Counting opens one fd for the directory itself; the bias is
    // constant across samples, so watermark *deltas* are exact.
    let entries = std::fs::read_dir("/proc/self/fd").ok()?;
    Some(entries.count() as u64)
}

fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Before / peak / after watermarks over a run. `peak` is the maximum
/// over every [`Watermark::mark`] call (plus before and after), so
/// leaks that only show while connections are open are still caught.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    /// Sample taken at construction.
    pub before: ResourceSample,
    /// Highest fd count observed.
    pub fd_peak: Option<u64>,
    /// Highest RSS observed, KiB.
    pub rss_peak_kb: Option<u64>,
    /// Sample taken at [`Watermark::finish`].
    pub after: ResourceSample,
}

impl Watermark {
    /// Start a watermark (samples now).
    pub fn start() -> Watermark {
        let before = sample();
        Watermark {
            before,
            fd_peak: before.fds,
            rss_peak_kb: before.rss_kb,
            after: ResourceSample {
                fds: None,
                rss_kb: None,
            },
        }
    }

    /// Fold a fresh sample into the peaks.
    pub fn mark(&mut self) {
        let s = sample();
        self.fd_peak = max_opt(self.fd_peak, s.fds);
        self.rss_peak_kb = max_opt(self.rss_peak_kb, s.rss_kb);
    }

    /// Take the final sample.
    pub fn finish(&mut self) {
        self.mark();
        self.after = sample();
    }

    /// Net fd growth across the run (`None` off-procfs). A server that
    /// leaks one stream clone per connection shows up here after its
    /// daemons shut down.
    pub fn fd_growth(&self) -> Option<i64> {
        Some(self.after.fds? as i64 - self.before.fds? as i64)
    }
}

fn max_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (x, None) | (None, x) => x,
    }
}

/// Held by every test of this crate that opens file descriptors (this
/// module's, the report tests' [`Watermark`]s and the hard-corpus read),
/// so a test counting the whole process's descriptors counts only its
/// own while the others run on parallel threads.
#[cfg(test)]
pub(crate) fn fd_window() -> std::sync::MutexGuard<'static, ()> {
    static WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());
    WINDOW
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermarks_track_fd_growth() {
        let _fds = fd_window();
        let mut w = Watermark::start();
        if w.before.fds.is_none() {
            return; // no procfs on this platform
        }
        // Hold some fds open across a mark, then drop them.
        let held: Vec<_> = (0..8)
            .map(|_| std::fs::File::open("/proc/self/status").unwrap())
            .collect();
        w.mark();
        drop(held);
        w.finish();
        assert!(w.fd_peak.unwrap() >= w.before.fds.unwrap() + 8);
        let growth = w.fd_growth().unwrap();
        assert!(growth.abs() <= 2, "fds leaked: {growth}");
    }

    #[test]
    fn rss_is_reported_on_linux() {
        let _fds = fd_window();
        let s = sample();
        if let Some(rss) = s.rss_kb {
            assert!(rss > 0);
        }
    }
}
