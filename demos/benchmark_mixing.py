"""Throughput: token mixing vs the attention sub-layer
====================================================

Single-threaded wall-clock comparison of one parameter-free mixing pass
against one full self-attention sub-layer on identical inputs. The attention
baseline is the decoder's own sub-layer, run as non-causal self-attention:
Q/K/V projections, attention, output projection. Attention is
quadratic in sequence length, the fast transforms are N log N, so the
speedup column should grow as the sequence gets longer.

Small sizes are used here to keep the demo quick; the command line runs the
reference setting (d_model 768, lengths 512 and 4096):

    specmix bench --seq-lens 512,4096 --d-model 768

Run with: python3 demos/benchmark_mixing.py
"""

from specmix import bench_mixing_vs_attention, results_markdown

results = bench_mixing_vs_attention(seq_lens=[128, 512, 1024], d_model=256,
                                    n_heads=8, repeats=5, warmup=2, seed=0)
print(results_markdown(results))

print("\nspeedup by sequence length (attention = 1.0):")
for r in results:
    if r.workload != "attention":
        print(f"  {r.workload:12s} L={r.seq_len:5d}  {r.speedup_vs_baseline:5.2f}x")
