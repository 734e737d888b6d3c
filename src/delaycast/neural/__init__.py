"""Hand-rolled neural regressors: dense, recurrent, convolutional, hybrid.

The four kinds (mlp, lstm, bilstm, hybrid) are each one `Network` of layer
paths. Forward passes are pure functions of (params, input); every backward
pass is written out analytically and checked against central differences in
tests. Sequence kinds read `sliding_windows` of consecutive rows.
"""

from .layers import Conv1d, Dense, Flatten, MaxPool1d
from .lstm import Bidirectional, LstmLayer, lstm_cell_backward, lstm_cell_forward, lstm_params
from .models import (
    Network,
    bilstm_model_build,
    build_from_spec,
    hybrid_model_build,
    lstm_model_build,
    mlp_build,
    sliding_windows,
)
from .training import (
    EpochStats,
    TrainConfig,
    TrainingError,
    train,
    validation_rows,
)

__all__ = [
    "Conv1d", "Dense", "Flatten", "MaxPool1d",
    "Bidirectional", "LstmLayer", "lstm_cell_backward", "lstm_cell_forward",
    "lstm_params",
    "Network", "bilstm_model_build", "build_from_spec", "hybrid_model_build",
    "lstm_model_build", "mlp_build", "sliding_windows",
    "EpochStats", "TrainConfig", "TrainingError", "train",
    "validation_rows",
]
