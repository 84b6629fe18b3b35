//! CPU placement. On a two-CPU box the scheduler's choice of where the
//! gateway's threads and the load threads meet decides how many wake-ups
//! cross CPUs, and that choice differs from run to run. The rig therefore
//! gives the load generator the lower half of the CPUs it may use and every
//! gateway child the upper half, so neither takes the other's time and every
//! request crosses CPUs the same number of times.
//!
//! The split is made **once, in the parent, before anything is pinned**: a
//! child inherits its parent's mask, so a child that split what it inherited
//! would land inside the generator's half. The parent hands the child its
//! CPUs on the command line, the child pins itself before it starts a
//! thread, and the parent reads `/proc/<child>/task/*/status` and refuses to
//! measure a child any thread of which may run elsewhere.
//!
//! The standard library has no affinity call, so this declares the two libc
//! functions it needs (std already links libc on Linux).

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable `cpu_set_t`-sized buffer for the
    // duration of the call, and its size is passed alongside; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and every thread it spawns from now on —
/// to `cpus`. The new mask need not lie inside the current one.
pub fn pin(cpus: &[usize]) -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    for cpu in cpus.iter().filter(|c| **c < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    if set.iter().all(|w| *w == 0) {
        return Err("no CPU to pin to".into());
    }
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer that outlives the
    // call, and its size is passed alongside; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(format!(
            "sched_setaffinity({cpus:?}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Who runs where, decided once per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The load generator's CPUs: the lower half.
    pub generator: Vec<usize>,
    /// Every gateway child's CPUs: the upper half.
    pub gateway: Vec<usize>,
}

impl Placement {
    /// `cpus` halved; `None` when there is nothing to halve.
    pub fn split(cpus: &[usize]) -> Option<Placement> {
        if cpus.len() < 2 {
            return None;
        }
        let (low, high) = cpus.split_at(cpus.len() / 2);
        Some(Placement {
            generator: low.to_vec(),
            gateway: high.to_vec(),
        })
    }

    /// Split the CPUs this (still unpinned) process may use and pin it to the
    /// generator's half. With a single CPU nothing is pinned and children
    /// are not either.
    pub fn take() -> Result<Option<Placement>, String> {
        let Some(placement) = Placement::split(&allowed()) else {
            return Ok(None);
        };
        pin(&placement.generator)?;
        Ok(Some(placement))
    }
}

/// `[0, 1, 5]` as `0,1,5`: how the CPUs travel to the child.
pub fn format_cpus(cpus: &[usize]) -> String {
    let parts: Vec<String> = cpus.iter().map(usize::to_string).collect();
    parts.join(",")
}

/// A CPU list as the kernel prints it in `Cpus_allowed_list` (`0-1,5`), of
/// which `format_cpus`'s output is the special case without ranges.
pub fn parse_cpus(text: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in text.trim().split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        let (first, last): (usize, usize) = (first.parse().ok()?, last.parse().ok()?);
        if first > last || last >= 1024 {
            return None;
        }
        cpus.extend(first..=last);
    }
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_are_disjoint_and_cover_the_cpus() {
        assert_eq!(Placement::split(&[]), None);
        assert_eq!(Placement::split(&[3]), None);
        let two = Placement::split(&[0, 1]).unwrap();
        assert_eq!((two.generator, two.gateway), (vec![0], vec![1]));
        let five = Placement::split(&[0, 2, 4, 6, 8]).unwrap();
        assert_eq!((five.generator, five.gateway), (vec![0, 2], vec![4, 6, 8]));
    }

    #[test]
    fn cpu_lists_round_trip() {
        assert_eq!(format_cpus(&[0, 1, 5]), "0,1,5");
        assert_eq!(parse_cpus("0,1,5"), Some(vec![0, 1, 5]));
        assert_eq!(parse_cpus("0-2,7\n"), Some(vec![0, 1, 2, 7]));
        assert_eq!(parse_cpus("0,x"), None);
        assert_eq!(parse_cpus("3-1"), None);
    }

    /// The mistake this module once made: a mask narrowed to one half does
    /// not stop a later call from moving to the other half.
    #[test]
    fn a_pinned_thread_can_move_to_the_other_half() {
        std::thread::spawn(|| {
            let Some(placement) = Placement::split(&allowed()) else {
                return; // one CPU: nothing to move between
            };
            pin(&placement.generator).unwrap();
            assert_eq!(allowed(), placement.generator);
            pin(&placement.gateway).unwrap();
            assert_eq!(allowed(), placement.gateway);
        })
        .join()
        .unwrap();
    }
}
