"""Wires every parameterized module into one model over a shared store."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .answer import AnswerOutput, answer_forward, create_answer_params
from .config import RunConfig
from .controller import (actor_policy, build_state, create_controller_params,
                         critic_value)
from .encoder import Encoded, create_encoder_params, encode_tokens
from .params import ParamStore
from .selector import SentenceDist, create_selector_params, score_sentences
from .tensor import Tensor
from .text import QAExample, TokenDoc, Vocab, load_glove


class QaModel:
    """All trainable state plus the forward surfaces the episode loop uses.

    One encoder parameter set serves documents and questions; the sentence
    scorer, span extractor and the two controller GRUs have their own
    parameters. Creation order is fixed, so a seed pins every initial value.
    """

    def __init__(self, cfg: RunConfig, vocab: Vocab, seed: Optional[int] = None):
        cfg.validate()
        self.cfg = cfg
        self.enc_cfg = cfg.encoder_config()
        self.vocab = vocab
        self.store = ParamStore()
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        word_init = None
        if cfg.glove_path:
            word_init = load_glove(cfg.glove_path, vocab, dim=cfg.d1)
        create_encoder_params(self.store, self.enc_cfg, vocab.n_words,
                              vocab.n_chars, rng, word_init=word_init)
        if cfg.freeze_word_emb:
            self.store["emb.word"].requires_grad = False
        create_selector_params(self.store, self.enc_cfg, cfg.sel_kernel,
                               cfg.sel_filters, rng)
        create_answer_params(self.store, self.enc_cfg, rng)
        create_controller_params(self.store, cfg.d_model, cfg.gru_size, rng)

    # ---- representation -------------------------------------------------
    def encode_doc(self, doc: TokenDoc, source: Optional[Encoded] = None) -> Encoded:
        """The encoding of ``doc``: embedded afresh, or, given ``source``, the
        encoding of the document ``doc`` was narrowed from, gathered from its
        projected rows at ``doc.positions``."""
        if source is not None:
            return source.gather(doc.positions)
        return encode_tokens(doc.flat_tokens(), doc.flat_char_ids(),
                             self.enc_cfg, self.store)

    def encode_question(self, example: QAExample) -> Encoded:
        return encode_tokens(example.question, example.question_chars,
                             self.enc_cfg, self.store)

    # ---- modules ---------------------------------------------------------
    def sentence_dist(self, q_enc: Encoded, ctx: TokenDoc,
                      ctx_enc: Encoded) -> SentenceDist:
        """Sentence distribution of ``ctx``, read from its encoding ``ctx_enc``."""
        return score_sentences(q_enc.matrix, ctx, ctx_enc.projected,
                               self.enc_cfg, self.store)

    def answer(self, q_enc: Encoded, ctx_enc: Encoded) -> AnswerOutput:
        return answer_forward(q_enc.matrix, ctx_enc.matrix, self.enc_cfg, self.store,
                              self.cfg.max_span_len)

    # ---- controller -------------------------------------------------------
    def state(self, ctx_enc: Encoded, q_enc: Encoded) -> Tensor:
        return build_state(ctx_enc, q_enc.matrix, self.store,
                           max_state_tokens=self.cfg.max_state_tokens)

    def policy(self, state_seq: Tensor, action_mask: Optional[np.ndarray], lengths):
        """Action (probabilities, log-probabilities), [B x 3] each for the B
        states ``state_seq`` packs back to back, of row counts ``lengths``."""
        return actor_policy(state_seq, self.store, action_mask, lengths)

    def value(self, state_seq: Tensor, lengths) -> Tensor:
        """Critic values, [B] for the B states ``state_seq`` packs."""
        return critic_value(state_seq, self.store, lengths)
