//! `Gpu::reset` restores a freshly constructed machine: after launches
//! that write far, computed addresses through every store path, runs
//! that fault part-way, and hardened runs with global-memory upsets,
//! the whole memory image is zero again and the next launch is
//! bit-identical to one on `Gpu::new` — on both backends.

use ggpu_simt::{
    Accelerator, FaultPlan, FaultSite, Gpu, HardenedOptions, Injection, Kernel, Launch, Protection,
    ScalarAccelerator, SimError, SimtConfig, SoaAccelerator, WatchdogConfig,
};

/// 4 MiB, the campaign's memory image.
const WORDS: usize = 1 << 20;
const A: u32 = 0x1000;
const OUT: u32 = 0x8000;
const N: u32 = 64;

/// `out[i] = a[i]`: the coalesced load/store path.
const COPY: &str = "
    gid   r1
    param r2, 1
    param r3, 3
    slli  r4, r1, 2
    add   r5, r4, r2
    lw    r6, r5, 0
    add   r7, r4, r3
    sw    r7, r6, 0
    ret
";

/// Lane `i` stores `i + 1` at `base + 16 KiB * i` (one lane per page
/// group: the per-lane walk, or the faulting walk when high lanes run
/// off the end), then odd lanes store again one word up (a masked,
/// non-dense issue).
const SCATTER: &str = "
    gid   r1
    param r2, 0
    slli  r3, r1, 14
    add   r3, r3, r2
    addi  r4, r1, 1
    sw    r3, r4, 0
    andi  r5, r1, 1
    beq   r5, r0, done
    sw    r3, r4, 4
    done:
    ret
";

/// Every lane stores its id at `base`: the broadcast store path.
const BROADCAST: &str = "
    gid   r1
    param r2, 0
    sw    r2, r1, 0
    ret
";

fn kernel(name: &str, src: &str) -> Kernel {
    Kernel::from_asm(name, src).expect("assembles")
}

fn image(gpu: &Gpu) -> Vec<u32> {
    gpu.read_words(0, WORDS).expect("whole image")
}

fn stage(gpu: &mut Gpu) {
    let a: Vec<u32> = (0..N).map(|i| 3 * i + 7).collect();
    gpu.write_words(A, &a).expect("stage");
}

/// Upsets of global words far from anything the kernels touch,
/// including the very last word; the SEC-DED one is corrected.
fn upsets() -> HardenedOptions {
    let site = |word| FaultSite::GlobalWord { word };
    let last = WORDS as u32 - 1;
    HardenedOptions {
        plan: FaultPlan::new(vec![
            Injection::single(1, site(last), 31, Protection::None),
            Injection::single(2, site(700_001), 4, Protection::None),
            Injection::single(3, site(0x3_0000), 0, Protection::SecDed),
        ]),
        watchdog: Some(WatchdogConfig::default()),
    }
}

#[test]
fn reset_restores_a_fresh_machine_on_both_backends() {
    let config = SimtConfig::with_cus(2);
    let (copy, scatter, broadcast) = (
        kernel("copy", COPY),
        kernel("scatter", SCATTER),
        kernel("broadcast", BROADCAST),
    );
    let copy_launch = Launch::new(N, N, vec![N, A, 0, OUT]);
    let far = 0x20_0004; // 2 MiB + 4: 64 lanes x 16 KiB stay in range
    let backends: [&dyn Accelerator; 2] = [&ScalarAccelerator, &SoaAccelerator];
    for accel in backends {
        let name = accel.name();
        let mut gpu = Gpu::new(config, WORDS);
        stage(&mut gpu);
        let run = gpu
            .launch_hardened_with(accel, &copy, &copy_launch, &upsets())
            .expect("hardened copy");
        assert_eq!(run.log.events.len(), 3, "{name}");
        gpu.launch_with(accel, &scatter, &Launch::new(N, N, vec![far]))
            .expect("scatter");
        gpu.launch_with(accel, &broadcast, &Launch::new(N, N, vec![0x3F_FF00]))
            .expect("broadcast");
        // High lanes run off the end after the low lanes have stored.
        let off_end = Launch::new(N, N, vec![(WORDS as u32 - 8 * 4096) * 4]);
        assert!(matches!(
            gpu.launch_with(accel, &scatter, &off_end),
            Err(SimError::MemoryOutOfBounds { .. })
        ));
        let before = image(&gpu);
        assert_ne!(before[WORDS - 1], 0, "{name}: last-word upset landed");
        assert_ne!(before[(far as usize + (N as usize - 1) * 16384) / 4], 0);

        gpu.reset();
        assert!(
            image(&gpu).iter().all(|&w| w == 0),
            "{name}: image not zero"
        );

        let mut fresh = Gpu::new(config, WORDS);
        for g in [&mut gpu, &mut fresh] {
            stage(g);
        }
        let next = Launch::new(N, N, vec![far + 8]);
        let reused = (
            gpu.launch_with(accel, &copy, &copy_launch).expect("copy"),
            gpu.launch_with(accel, &scatter, &next).expect("scatter"),
        );
        let baseline = (
            fresh.launch_with(accel, &copy, &copy_launch).expect("copy"),
            fresh.launch_with(accel, &scatter, &next).expect("scatter"),
        );
        assert_eq!(reused, baseline, "{name}: RunStats");
        assert!(image(&gpu) == image(&fresh), "{name}: memory image");
    }
}
