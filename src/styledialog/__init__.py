"""Spoken-dialog pipeline simulator, prosodic style toolkit, and
evaluation metrics."""

from .dialog import (AudioClip, Conversation, ConversationContext, DialogCrop,
                     StyleVector, Turn, make_crop, sample_crop_index)
from .acoustics import (AcousticSummary, acoustic_embedding, encode_style,
                        energy_stats, hnr, pitch_track, summarize)
from .components import (MarkovTable, ToyRecognizer, ToyResponder, ToySynthesizer,
                         train_markov)
from .objectives import (ProjectionOut, grad_style_loss, grad_text_loss, project_out,
                         style_loss, text_loss)
from .prompts import (BuiltPrompt, PromptVariant, build_prompt, count_tokens,
                      truncate_to_budget)
from .scheduler import (LatencyModel, RunConfig, SimReport, StageEvent, Topology,
                        run_dialog, simulate_turn)
from .metrics import (MetricReport, assemble_report, bleu, cosine,
                      greedy_embed_score, meteor_exact, normalize, pearson,
                      rouge_l_f1)

__version__ = "0.1.0"
