//! Moving the benchmark's one thread between the CPUs it may run on.
//!
//! On a shared host each CPU a guest sees is a hyperthread, and another
//! tenant can keep its sibling busy for seconds at a time, slowing all
//! work on that CPU by a third or more while the other CPU runs at full
//! speed. The kernel leaves a lone busy thread on the CPU it started on,
//! so without help a whole run can land on the slow one: on a 2-vCPU VM,
//! two runs in ten of the fleet workload came out 33% slower than the
//! rest, with every round equally slow. The rounds and set-up builds
//! therefore take the CPUs in turn ([`Rotation::next`]), and the fastest
//! pass of each segment (see [`crate::laps`]) comes from whichever CPU
//! was quiet at the time. The benchmark stays on one thread.

/// The CPUs the process may run on, taken in turn.
#[derive(Debug, Default)]
pub struct Rotation {
    cpus: Vec<usize>,
    turn: usize,
}

impl Rotation {
    /// The CPUs in the thread's affinity mask; none (so [`Rotation::next`]
    /// does nothing) when the mask cannot be read.
    pub fn new() -> Rotation {
        Rotation {
            cpus: sys::allowed(),
            turn: 0,
        }
    }

    /// The CPUs the rotation visits.
    pub fn cpus(&self) -> &[usize] {
        &self.cpus
    }

    /// Pins the thread to the next CPU in turn. Best effort: with one CPU
    /// or none, or if the kernel refuses, the thread stays where it is.
    pub fn next(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        sys::pin(self.cpus[self.turn % self.cpus.len()]);
        self.turn += 1;
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
    type CpuSet = [u64; 16];
    const CPU_BITS: usize = 64 * 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if status != 0 {
            return Vec::new();
        }
        (0..CPU_BITS)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a `cpu_set_t`-sized buffer and pid 0 names the
        // calling thread. A refusal leaves the thread where it was.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_visits_every_allowed_cpu_and_keeps_the_mask_whole() {
        let mut rotation = Rotation::new();
        let allowed = rotation.cpus.clone();
        for _ in 0..2 * allowed.len() {
            rotation.next();
            let now = sys::allowed();
            if allowed.len() >= 2 {
                assert_eq!(now.len(), 1, "pinned to one CPU");
                assert!(allowed.contains(&now[0]));
            }
        }
    }
}
