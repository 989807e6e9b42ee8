//! Sketch generation: the symbolic pipeline with holes.
//!
//! A [`Sketch`] fixes a grid shape and lays out one hole per hardware
//! configuration of Table 1 of the paper:
//!
//! | hole | configuration |
//! |---|---|
//! | `stage{s}_slot{j}_opcode` | stateless ALU opcode |
//! | `stage{s}_slot{j}_imm` | immediate operand |
//! | `stage{s}_slot{j}_mux_{a,b}` | stateless input-mux controls |
//! | `stage{s}_slot{j}_pkt_mux{k}` | stateful input-mux controls |
//! | `stage{s}_slot{j}_sfh_<name>` | stateful template holes |
//! | `stage{s}_omux{j}` | output-mux control per container |
//! | `state{v}_stage` | state-variable allocation (canonical rows) |
//! | `fld{f}_cont{c}` | packet-field allocation indicators (non-canonical mode only) |
//!
//! Canonicalization (§3, Figure 4 of the paper) pins packet field *i* to
//! container *i* and state variable *v* to stateful-ALU row *v*, leaving
//! only the state's *stage* as a hole; the non-canonical mode (used by the
//! canonicalization ablation) instead synthesizes a full field→container
//! indicator matrix under one-hot constraints.

use chipmunk_bv::{Binding, Blaster, BvOp, Circuit, TermId};
use chipmunk_pisa::{
    stateless, GridSpec, OutMuxSel, PipelineConfig, StageConfig, StatefulConfig, StatelessConfig,
};

/// Options controlling sketch construction.
#[derive(Clone, Copy, Debug)]
pub struct SketchOptions {
    /// Pin packet field `i` to PHV container `i` (Figure 4). Default true;
    /// the ablation benchmark turns this off.
    pub canonical_fields: bool,
}

impl Default for SketchOptions {
    fn default() -> Self {
        SketchOptions {
            canonical_fields: true,
        }
    }
}

/// One named hole with its bit width.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HoleDecl {
    /// Unique name, stable across [`Sketch::symbolic`] and
    /// [`Sketch::decode`].
    pub name: String,
    /// Bits of freedom.
    pub bits: u8,
}

/// Symbolic outputs of a sketch instantiation.
#[derive(Clone, Debug)]
pub struct SketchOutputs {
    /// Final value of each packet field.
    pub field_outs: Vec<TermId>,
    /// Final value of each state variable.
    pub state_outs: Vec<TermId>,
    /// Width-1 constraint terms that must all hold (allocation one-hot
    /// constraints; empty in canonical mode).
    pub constraints: Vec<TermId>,
}

/// The decoded result of a synthesis run.
#[derive(Clone, Debug)]
pub struct DecodedConfig {
    /// The concrete hardware configuration.
    pub pipeline: PipelineConfig,
    /// Container index assigned to each packet field (identity in canonical
    /// mode).
    pub field_to_container: Vec<usize>,
}

/// A symbolic pipeline over a fixed grid, with holes for every hardware
/// configuration.
#[derive(Clone, Debug)]
pub struct Sketch {
    grid: GridSpec,
    num_fields: usize,
    num_states: usize,
    options: SketchOptions,
    holes: Vec<HoleDecl>,
}

fn bits_for(n: usize) -> u8 {
    let mut b = 1u8;
    while (1usize << b) < n {
        b += 1;
    }
    b
}

impl Sketch {
    /// Build the hole layout for a grid and a program shape.
    ///
    /// # Errors
    /// If the program cannot possibly fit: more fields than containers, or
    /// more state variables than stateful-ALU rows.
    pub fn new(
        grid: GridSpec,
        num_fields: usize,
        num_states: usize,
        options: SketchOptions,
    ) -> Result<Sketch, String> {
        if num_fields > grid.slots {
            return Err(format!(
                "{num_fields} packet fields need {num_fields} PHV containers, grid has {}",
                grid.slots
            ));
        }
        if num_states > grid.slots {
            return Err(format!(
                "{num_states} state variables need {num_states} stateful-ALU rows, grid has {}",
                grid.slots
            ));
        }
        grid.stateful.validate()?;
        let mut holes = Vec::new();
        let mux_bits = bits_for(grid.slots);
        let omux_bits = bits_for(grid.slots + 1);
        if !options.canonical_fields {
            for f in 0..num_fields {
                for c in 0..grid.slots {
                    holes.push(HoleDecl {
                        name: format!("fld{f}_cont{c}"),
                        bits: 1,
                    });
                }
            }
        }
        for v in 0..num_states {
            holes.push(HoleDecl {
                name: format!("state{v}_stage"),
                bits: bits_for(grid.stages),
            });
        }
        for s in 0..grid.stages {
            for j in 0..grid.slots {
                holes.push(HoleDecl {
                    name: format!("stage{s}_slot{j}_opcode"),
                    bits: grid.stateless.opcode_bits(),
                });
                holes.push(HoleDecl {
                    name: format!("stage{s}_slot{j}_imm"),
                    bits: grid.stateless.imm_bits,
                });
                holes.push(HoleDecl {
                    name: format!("stage{s}_slot{j}_mux_a"),
                    bits: mux_bits,
                });
                holes.push(HoleDecl {
                    name: format!("stage{s}_slot{j}_mux_b"),
                    bits: mux_bits,
                });
            }
            for j in 0..grid.slots {
                for k in 0..grid.stateful.num_pkt_operands {
                    holes.push(HoleDecl {
                        name: format!("stage{s}_slot{j}_pkt_mux{k}"),
                        bits: mux_bits,
                    });
                }
                for (hn, hb) in &grid.stateful.holes {
                    holes.push(HoleDecl {
                        name: format!("stage{s}_slot{j}_sfh_{hn}"),
                        bits: *hb,
                    });
                }
            }
            for j in 0..grid.slots {
                holes.push(HoleDecl {
                    name: format!("stage{s}_omux{j}"),
                    bits: omux_bits,
                });
            }
        }
        Ok(Sketch {
            grid,
            num_fields,
            num_states,
            options,
            holes,
        })
    }

    /// The grid this sketch targets.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The hole layout, in the order expected by [`Sketch::symbolic`] and
    /// [`Sketch::decode`].
    pub fn holes(&self) -> &[HoleDecl] {
        &self.holes
    }

    /// Total hole bits — the log2 of the configuration-space size, the
    /// quantity the paper's §1 calls out as the scaling challenge.
    pub fn total_hole_bits(&self) -> u32 {
        self.holes.iter().map(|h| h.bits as u32).sum()
    }

    /// The widest single hole. Circuits instantiating this sketch must use
    /// at least this value width, otherwise selector codes would be
    /// truncated and the symbolic and concrete semantics would diverge.
    pub fn max_hole_bits(&self) -> u8 {
        self.holes.iter().map(|h| h.bits).max().unwrap_or(1)
    }

    fn hole_index(&self, name: &str) -> usize {
        self.holes
            .iter()
            .position(|h| h.name == name)
            .unwrap_or_else(|| panic!("no hole named {name}"))
    }

    /// Instantiate the pipeline symbolically.
    ///
    /// `hole_terms` supplies one term per hole (same order as
    /// [`Sketch::holes`]); `field_ins`/`state_ins` are the shared input
    /// terms. Returns the symbolic outputs plus any allocation constraints
    /// to assert.
    pub fn symbolic(
        &self,
        c: &mut Circuit,
        hole_terms: &[TermId],
        field_ins: &[TermId],
        state_ins: &[TermId],
    ) -> SketchOutputs {
        assert_eq!(hole_terms.len(), self.holes.len());
        assert_eq!(field_ins.len(), self.num_fields);
        assert_eq!(state_ins.len(), self.num_states);
        assert!(
            c.width() >= self.max_hole_bits(),
            "circuit width {} cannot represent {}-bit holes",
            c.width(),
            self.max_hole_bits()
        );
        let w = self.grid.slots;
        let zero = c.constant(0);
        let h = |name: String| hole_terms[self.hole_index(&name)];

        let mut constraints = Vec::new();

        // --- Field → container wiring (input side).
        let mut containers: Vec<TermId> = vec![zero; w];
        if self.options.canonical_fields {
            containers[..self.num_fields].copy_from_slice(field_ins);
        } else {
            // container c = the field whose indicator I[f][c] is set.
            for (ci, cont) in containers.iter_mut().enumerate() {
                let mut acc = zero;
                for (f, &fin) in field_ins.iter().enumerate() {
                    let ind = h(format!("fld{f}_cont{ci}"));
                    let one = c.constant(1);
                    let sel = c.binop(BvOp::Eq, ind, one);
                    acc = c.mux(sel, fin, acc);
                }
                *cont = acc;
            }
            // One-hot constraints: each field in exactly one container,
            // each container holds at most one field.
            let one = c.constant(1);
            for f in 0..self.num_fields {
                let mut sum = zero;
                for ci in 0..w {
                    let ind = h(format!("fld{f}_cont{ci}"));
                    sum = c.binop(BvOp::Add, sum, ind);
                }
                constraints.push(c.binop(BvOp::Eq, sum, one));
            }
            for ci in 0..w {
                let mut sum = zero;
                for f in 0..self.num_fields {
                    let ind = h(format!("fld{f}_cont{ci}"));
                    sum = c.binop(BvOp::Add, sum, ind);
                }
                constraints.push(c.binop(BvOp::Ule, sum, one));
            }
        }

        // --- State allocation: state v is active in stage `state{v}_stage`
        // at row v (canonical rows).
        let mut state_cur: Vec<TermId> = state_ins.to_vec();

        // --- Stages.
        for s in 0..self.grid.stages {
            // Stateless ALUs.
            let mut dest: Vec<TermId> = Vec::with_capacity(w);
            for j in 0..w {
                let a = c.select(h(format!("stage{s}_slot{j}_mux_a")), &containers);
                let b = c.select(h(format!("stage{s}_slot{j}_mux_b")), &containers);
                let imm = h(format!("stage{s}_slot{j}_imm"));
                let opcode = h(format!("stage{s}_slot{j}_opcode"));
                dest.push(stateless::symbolic_alu(
                    &self.grid.stateless,
                    c,
                    a,
                    b,
                    imm,
                    opcode,
                ));
            }
            // Stateful ALUs (row v can only hold state v).
            let mut salu_out: Vec<TermId> = vec![zero; w];
            for j in 0..w.min(self.num_states) {
                let stage_hole = h(format!("state{j}_stage"));
                let s_const = c.constant(s as u64);
                // Out-of-range stage codes clamp to the last stage, so every
                // state variable is always allocated somewhere (mirrored by
                // `decode`).
                let active = if s + 1 == self.grid.stages {
                    c.binop(BvOp::Uge, stage_hole, s_const)
                } else {
                    c.binop(BvOp::Eq, stage_hole, s_const)
                };
                let pkts: Vec<TermId> = (0..self.grid.stateful.num_pkt_operands)
                    .map(|k| c.select(h(format!("stage{s}_slot{j}_pkt_mux{k}")), &containers))
                    .collect();
                let sf_holes: Vec<TermId> = self
                    .grid
                    .stateful
                    .holes
                    .iter()
                    .map(|(hn, _)| h(format!("stage{s}_slot{j}_sfh_{hn}")))
                    .collect();
                let (new_state, out) =
                    self.grid
                        .stateful
                        .symbolic(c, &sf_holes, state_ins[j], &pkts);
                state_cur[j] = c.mux(active, new_state, state_cur[j]);
                salu_out[j] = c.mux(active, out, zero);
            }
            // Output muxes: values 0..w-1 select stateful ALU outputs; the
            // last value selects the container's own stateless ALU.
            let mut next: Vec<TermId> = Vec::with_capacity(w);
            for (j, &d) in dest.iter().enumerate() {
                let mut options = salu_out.clone();
                options.push(d);
                next.push(c.select(h(format!("stage{s}_omux{j}")), &options));
            }
            containers = next;
        }

        // --- Field outputs.
        let field_outs: Vec<TermId> = if self.options.canonical_fields {
            containers[..self.num_fields].to_vec()
        } else {
            (0..self.num_fields)
                .map(|f| {
                    let mut acc = zero;
                    let one = c.constant(1);
                    for (ci, &cont) in containers.iter().enumerate() {
                        let ind = h(format!("fld{f}_cont{ci}"));
                        let sel = c.binop(BvOp::Eq, ind, one);
                        acc = c.mux(sel, cont, acc);
                    }
                    acc
                })
                .collect()
        };

        SketchOutputs {
            field_outs,
            state_outs: state_cur,
            constraints,
        }
    }

    /// Allocate fresh solver literals for every hole.
    ///
    /// Returns one literal vector per hole, in hole order — share these
    /// across per-counterexample instantiations via [`Binding::Bits`].
    pub fn fresh_hole_bits(&self, blaster: &mut Blaster<'_>) -> Vec<Vec<chipmunk_sat::Lit>> {
        self.holes
            .iter()
            .map(|hd| blaster.fresh_bits(hd.bits))
            .collect()
    }

    /// Bind hole input terms of `circuit` to shared literals.
    pub fn bind_holes(
        &self,
        circuit: &Circuit,
        hole_terms: &[TermId],
        bits: &[Vec<chipmunk_sat::Lit>],
        blaster: &mut Blaster<'_>,
    ) {
        for (i, &t) in hole_terms.iter().enumerate() {
            // Hole inputs are value-width circuit inputs; pad the hole's
            // bits with constant-false to the circuit width.
            let mut padded = bits[i].clone();
            let f = !blaster.true_lit();
            while padded.len() < circuit.width() as usize {
                padded.push(f);
            }
            blaster.bind(circuit.input_id(t), Binding::Bits(padded));
        }
    }

    /// Decode concrete hole values (same order as [`Sketch::holes`]) into a
    /// hardware configuration.
    pub fn decode(&self, hole_values: &[u64]) -> DecodedConfig {
        assert_eq!(hole_values.len(), self.holes.len());
        let g = |name: String| hole_values[self.hole_index(&name)];
        let w = self.grid.slots;
        let clamp = |v: u64, n: usize| (v as usize).min(n - 1);

        let field_to_container: Vec<usize> = if self.options.canonical_fields {
            (0..self.num_fields).collect()
        } else {
            (0..self.num_fields)
                .map(|f| {
                    (0..w)
                        .find(|&c| g(format!("fld{f}_cont{c}")) & 1 == 1)
                        .unwrap_or(f)
                })
                .collect()
        };

        let mut stages = Vec::with_capacity(self.grid.stages);
        for s in 0..self.grid.stages {
            let stateless_cfg: Vec<StatelessConfig> = (0..w)
                .map(|j| StatelessConfig {
                    opcode: g(format!("stage{s}_slot{j}_opcode")),
                    imm: g(format!("stage{s}_slot{j}_imm")),
                    mux_a: clamp(g(format!("stage{s}_slot{j}_mux_a")), w),
                    mux_b: clamp(g(format!("stage{s}_slot{j}_mux_b")), w),
                })
                .collect();
            let stateful_cfg: Vec<StatefulConfig> = (0..w)
                .map(|j| {
                    // Out-of-range stage codes clamp to the last stage,
                    // mirroring `symbolic`.
                    let active = j < self.num_states
                        && clamp(g(format!("state{j}_stage")), self.grid.stages) == s;
                    StatefulConfig {
                        state_var: if active { Some(j) } else { None },
                        pkt_muxes: (0..self.grid.stateful.num_pkt_operands)
                            .map(|k| clamp(g(format!("stage{s}_slot{j}_pkt_mux{k}")), w))
                            .collect(),
                        holes: self
                            .grid
                            .stateful
                            .holes
                            .iter()
                            .map(|(hn, _)| g(format!("stage{s}_slot{j}_sfh_{hn}")))
                            .collect(),
                    }
                })
                .collect();
            let out_mux: Vec<OutMuxSel> = (0..w)
                .map(|j| {
                    let v = g(format!("stage{s}_omux{j}")) as usize;
                    if v < w {
                        OutMuxSel::Stateful(v)
                    } else {
                        OutMuxSel::Stateless
                    }
                })
                .collect();
            stages.push(StageConfig {
                stateless: stateless_cfg,
                stateful: stateful_cfg,
                out_mux,
            });
        }
        DecodedConfig {
            pipeline: PipelineConfig { stages },
            field_to_container,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk_bv::InputId;
    use chipmunk_pisa::stateful::library;
    use chipmunk_pisa::Pipeline;

    fn grid(stages: usize, slots: usize) -> GridSpec {
        GridSpec::new(stages, slots, library::raw(2), 2)
    }

    #[test]
    fn hole_layout_is_deterministic_and_named() {
        let sk = Sketch::new(grid(2, 2), 1, 1, SketchOptions::default()).unwrap();
        let names: Vec<&str> = sk.holes().iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"state0_stage"));
        assert!(names.contains(&"stage1_slot1_opcode"));
        assert!(names.contains(&"stage0_omux0"));
        // No duplicates.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(sk.total_hole_bits() > 0);
    }

    #[test]
    fn rejects_oversized_programs() {
        assert!(Sketch::new(grid(1, 2), 3, 0, SketchOptions::default()).is_err());
        assert!(Sketch::new(grid(1, 2), 1, 3, SketchOptions::default()).is_err());
    }

    #[test]
    fn non_canonical_mode_adds_indicator_holes() {
        let canon = Sketch::new(grid(1, 2), 2, 0, SketchOptions::default()).unwrap();
        let free = Sketch::new(
            grid(1, 2),
            2,
            0,
            SketchOptions {
                canonical_fields: false,
            },
        )
        .unwrap();
        assert_eq!(
            free.holes().len(),
            canon.holes().len() + 4 // 2 fields × 2 containers
        );
    }

    /// The symbolic pipeline must agree with the concrete executor for any
    /// hole assignment — for **every** library template: evaluate the
    /// circuit at random holes/inputs and run the decoded config through
    /// `chipmunk_pisa::Pipeline`. (A previous hole-name-aliasing bug in
    /// `nested_ifs` was only observable at this layer.)
    #[test]
    fn symbolic_matches_concrete_executor() {
        // Width must cover the widest hole (banzai opcode = 5 bits).
        let width = 6u8;
        let mask = (1u64 << width) - 1;
        for template in chipmunk_pisa::stateful::library::all(2) {
            let name = template.name.clone();
            let g = GridSpec::new(2, 2, template, 2);
            let sk = Sketch::new(g.clone(), 2, 1, SketchOptions::default()).unwrap();
            let mut c = Circuit::new(width);
            let hole_terms: Vec<TermId> = sk.holes().iter().map(|hd| c.input(&hd.name)).collect();
            let f0 = c.input("f0");
            let f1 = c.input("f1");
            let s0 = c.input("s0");
            let outs = sk.symbolic(&mut c, &hole_terms, &[f0, f1], &[s0]);
            assert!(outs.constraints.is_empty());

            let mut seed = 0xdead_beef_cafe_1234u64 ^ sk.total_hole_bits() as u64;
            for round in 0..40 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut s = seed;
                let mut hole_values = Vec::new();
                for hd in sk.holes() {
                    s = s.wrapping_mul(2654435761).wrapping_add(17);
                    hole_values.push((s >> 7) & ((1u64 << hd.bits) - 1));
                }
                let fv = [(seed >> 3) & mask, (seed >> 11) & mask];
                let sv = (seed >> 17) & mask;

                // Circuit evaluation.
                let mut env: Vec<u64> = hole_values.clone();
                env.push(fv[0]);
                env.push(fv[1]);
                env.push(sv);
                let env2 = env.clone();
                let lookup = move |i: InputId| env2[i.index()];
                let got = c.eval_many(
                    &[outs.field_outs[0], outs.field_outs[1], outs.state_outs[0]],
                    &lookup,
                );

                // Concrete executor on the decoded config.
                let dec = sk.decode(&hole_values);
                let mut pipe = Pipeline::new(g.clone(), dec.pipeline, 1, width).unwrap();
                pipe.set_state(0, sv);
                let phv_out = pipe.exec(&[fv[0], fv[1]]);
                assert_eq!(
                    got,
                    vec![phv_out[0], phv_out[1], pipe.state(0)],
                    "template {name} round {round} holes {hole_values:?} fv {fv:?} sv {sv}"
                );
            }
        }
    }

    #[test]
    fn decode_produces_valid_configs() {
        let g = grid(3, 2);
        let sk = Sketch::new(g.clone(), 2, 2, SketchOptions::default()).unwrap();
        // All-zero holes: both states in stage 0.
        let zeros = vec![0u64; sk.holes().len()];
        let dec = sk.decode(&zeros);
        assert!(dec.pipeline.validate(&g, 2).is_ok());
        assert_eq!(dec.field_to_container, vec![0, 1]);
    }
}
